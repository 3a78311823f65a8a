//! Sparse revised simplex on equilibrated standard form — the core
//! behind both the [`SparseRevised`](crate::SparseRevised) and the
//! LU-backed [`LuFtSimplex`](crate::LuFtSimplex) backends.
//!
//! The dense tableau ([`crate::simplex`]) updates an `m × (n + m)`
//! tableau on every pivot. The revised method keeps only a compact
//! representation of the basis and reads the constraint matrix in CSC
//! form ([`crate::csc::CscMatrix`]). *Which* representation is the
//! [`BasisRepr`] abstraction:
//!
//! * [`DenseInverse`] — the explicit `m × m` inverse with rank-one row
//!   updates: O(m²) per pivot, one O(m³) inversion per refactorization.
//!   Unbeatable constant factor on small bases; this is the `sparse`
//!   backend.
//! * [`FtBasis`] — sparse LU factors ([`crate::lu`]) with
//!   Forrest–Tomlin updates ([`crate::ft`]): solves in O(nnz of the
//!   factors), refactorization driven by update-count/fill-in/accuracy
//!   thresholds instead of a fixed period. This is the `lu-ft` backend,
//!   and the representation of choice for the large sparse
//!   Handelman/Farkas systems.
//!
//! The simplex logic itself — two-phase structure, Dantzig pricing with
//! the sticky-Bland anti-cycling fallback, the minimum-ratio test, the
//! feasibility watchdog — is generic over the representation, so both
//! backends share one audited pivoting loop and the differential
//! property tests exercise the exact code that ships.
//!
//! Presolve, equilibration and the warm-start basis cache live in the
//! [`LpSolver`](crate::LpSolver) session ([`crate::solver`]): this module
//! only sees the scaled core system plus an optional warm basis, and
//! reports the solution, the final basis (the session caches it per
//! sparsity pattern), the pivot count, and the robustness-path counters
//! (feasibility-watchdog restarts, all-Bland retries) that
//! [`LpStats`](crate::LpStats) exposes. A warm basis is refactorized and
//! — when still primal feasible — skips phase 1 and most phase-2 pivots;
//! an infeasible or singular warm basis falls back to the cold two-phase
//! path, so warm starts never change results, only speed.
//!
//! The hot loops run on the unrolled [`qava_linalg::vecops`] kernels.

use crate::csc::CscMatrix;
use crate::faults::{self, Site};
use crate::ft::FtBasis;
use crate::simplex::MAX_PIVOTS;
use crate::LpError;
use qava_linalg::{vecops, Matrix, EPS};
use std::any::Any;
use std::mem::take;

/// Bland-fallback patience, matching the dense path.
const DEGENERACY_PATIENCE: usize = 40;

/// A pluggable basis-inverse engine for the revised simplex.
///
/// Implementations maintain whatever stands in for `B⁻¹` — an explicit
/// inverse, or LU factors updated in place — and answer the four queries
/// the simplex loop needs: forward transformation (`B⁻¹·a_j`), backward
/// transformation (`c_Bᵀ·B⁻¹`), single rows of `B⁻¹`, and the rank-one
/// basis-exchange update. The solves write into a caller-owned `out`
/// buffer of length `m` (every entry is overwritten), so the pivot loop
/// reuses its vectors instead of allocating one per solve.
pub(crate) trait BasisRepr {
    /// The representation of the all-artificial identity basis (the
    /// phase-1 starting point).
    fn identity(m: usize) -> Self
    where
        Self: Sized;

    /// Returns to the all-artificial identity basis in place: afterwards
    /// the engine is exactly what [`identity`](Self::identity) builds,
    /// accuracy count included, but keeps the storage it has grown, so a
    /// recycled engine runs its next solve without allocating.
    fn reset(&mut self);

    /// Rebuilds the representation from scratch for the given basis
    /// (artificial columns are `a.cols()..`, stored as unit columns).
    /// Returns `false` — leaving the previous state untouched — when the
    /// basis matrix is singular.
    fn refactor(&mut self, a: &CscMatrix, n: usize, basis: &[usize]) -> bool;

    /// `out = B⁻¹ · v` for a sparse column `v` given as parallel
    /// `(indices, values)` slices. Takes `&mut self` for the solve
    /// workspace (and, in the LU engine, the spike cache of the update
    /// that usually follows).
    fn ftran_col(&mut self, idx: &[usize], vals: &[f64], out: &mut [f64]);

    /// `out = B⁻¹ · rhs` for a dense right-hand side.
    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]);

    /// `out = c_Bᵀ · B⁻¹` for a dense basic-cost vector.
    fn btran_dense(&self, cb: &[f64], out: &mut [f64]);

    /// `out` = row `i` of `B⁻¹` (equivalently `eᵢᵀ·B⁻¹`).
    fn binv_row(&self, i: usize, out: &mut [f64]);

    /// Applies the basis exchange: the variable at `row` leaves and the
    /// column with ftran'd direction `u` enters. `support` lists the
    /// indices `i` with `|u[i]| > EPS` in increasing order, so sparse
    /// directions only touch their own rows.
    ///
    /// `col_idx`/`col_vals` are the entering column itself (sparse, row
    /// indexed) — the hook the Forrest–Tomlin representation needs: its
    /// column replacement works on the *partially* transformed spike
    /// `E·L⁻¹·a`, which it derives from the raw column directly rather
    /// than un-solving `u` back through U (a round trip that amplifies
    /// error by the condition of U — enough, on the degenerate coupon
    /// systems, to steer the shared pivot loop into a singular basis).
    /// The dense-inverse engine ignores it.
    fn update(
        &mut self,
        row: usize,
        u: &[f64],
        support: &[usize],
        col_idx: &[usize],
        col_vals: &[f64],
    );

    /// Whether the accumulated updates warrant a refactorization now
    /// (`iteration` is the simplex loop counter; the dense inverse uses
    /// a fixed period, the LU engine its own thresholds).
    fn should_refactor(&self, iteration: usize) -> bool;

    /// Whether an optimality verdict reached from incrementally-updated
    /// state may be returned as-is, or must first be reproduced from a
    /// fresh refactorization. The dense inverse trusts its rank-one
    /// updates between the fixed-period refactorizations (the historical
    /// behavior, bounded by the feasibility watchdog); the LU engine
    /// does not — incremental factor updates can drift `x_B` and the
    /// pricing multipliers past the optimality tolerance on ill-scaled
    /// systems, silently corrupting the reported solution (see
    /// `tests/drift_regression.rs`).
    fn trusts_incremental_optimal(&self) -> bool;

    /// Updates since the engine was created or [`reset`](Self::reset)
    /// whose determinant-identity cross-check disagreed with the
    /// eliminated diagonal — each schedules a refactorization.
    /// [`RunTelemetry::absorb`] polls it exactly once per run state, and
    /// every run starts its engine from [`identity`](Self::identity) or
    /// a reset, so engines report totals since then and refactorizations
    /// must *not* reset them. Engines without the cross-check keep the
    /// default 0.
    fn accuracy_refactors(&self) -> usize {
        0
    }
}

/// Sparse entries of basis slot `bj`, lent rather than copied: the CSC
/// column's slices for real columns, the virtual unit column for
/// artificials (`n..`) — index slice `unit_rows[bj - n..=bj - n]` of the
/// caller's identity table `unit_rows = 0..m`, value slice a static
/// `[1.0]`. The one encoding of the artificial-column convention, shared
/// by every [`BasisRepr::refactor`] implementation — backend parity
/// depends on both representations assembling identical basis matrices.
pub(crate) fn basis_col<'a>(
    a: &'a CscMatrix,
    n: usize,
    bj: usize,
    unit_rows: &'a [usize],
) -> (&'a [usize], &'a [f64]) {
    if bj < n {
        a.col(bj)
    } else {
        (std::slice::from_ref(&unit_rows[bj - n]), &[1.0])
    }
}

/// Refactorization cadence of [`DenseInverse`]: rebuilding `B⁻¹` from
/// the basis every so many iterations bounds the error the rank-one
/// updates accumulate.
const REFACTOR_EVERY: usize = 64;

/// Preferred minimum pivot element; see [`Revised::leaving`].
const PIVOT_TOL: f64 = 1e-7;

/// The explicit dense-inverse basis representation (the original
/// revised-simplex engine, still the best fit for small/dense bases).
pub(crate) struct DenseInverse {
    binv: Matrix,
    /// Reusable copy of the pivot row of `B⁻¹` so the rank-one update can
    /// run as slice `axpy`s without aliasing the matrix.
    pivot_row: Vec<f64>,
    /// `0..m`, the artificial columns' index slices ([`basis_col`]).
    unit_rows: Vec<usize>,
}

impl BasisRepr for DenseInverse {
    fn identity(m: usize) -> Self {
        DenseInverse {
            binv: Matrix::identity(m),
            pivot_row: vec![0.0; m],
            unit_rows: (0..m).collect(),
        }
    }

    fn reset(&mut self) {
        for i in 0..self.binv.rows() {
            let row = self.binv.row_mut(i);
            row.fill(0.0);
            row[i] = 1.0;
        }
    }

    fn refactor(&mut self, a: &CscMatrix, n: usize, basis: &[usize]) -> bool {
        let m = a.rows();
        let mut bm = Matrix::zeros(m, m);
        for (k, &j) in basis.iter().enumerate() {
            let (idx, vals) = basis_col(a, n, j, &self.unit_rows);
            for (&r, &v) in idx.iter().zip(vals) {
                bm[(r, k)] = v;
            }
        }
        match bm.inverse() {
            Some(inv) => {
                self.binv = inv;
                true
            }
            None => false,
        }
    }

    /// Computed row-wise — `u_i = Σ_r B⁻¹[i, r]·v_r` is a gather dot
    /// against the `i`-th row of `B⁻¹` — so the row-major matrix is
    /// walked contiguously and only the column's nonzeros are read.
    fn ftran_col(&mut self, idx: &[usize], vals: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = vecops::gather_dot(idx, vals, self.binv.row(i));
        }
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = vecops::dot(self.binv.row(i), rhs);
        }
    }

    fn btran_dense(&self, cb: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (i, &c) in cb.iter().enumerate() {
            if c != 0.0 {
                vecops::axpy(c, self.binv.row(i), out);
            }
        }
    }

    fn binv_row(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(self.binv.row(i));
    }

    /// The `B⁻¹` rank-one update runs as one `axpy` per support row
    /// against a snapshot of the scaled pivot row.
    fn update(
        &mut self,
        row: usize,
        u: &[f64],
        support: &[usize],
        _col_idx: &[usize],
        _col_vals: &[f64],
    ) {
        let inv = 1.0 / u[row];
        for v in self.binv.row_mut(row) {
            *v *= inv;
        }
        self.pivot_row.copy_from_slice(self.binv.row(row));
        for &i in support {
            if i != row {
                vecops::axpy(-u[i], &self.pivot_row, self.binv.row_mut(i));
            }
        }
    }

    fn should_refactor(&self, iteration: usize) -> bool {
        iteration.is_multiple_of(REFACTOR_EVERY)
    }

    fn trusts_incremental_optimal(&self) -> bool {
        true
    }
}

/// The working state of a revised simplex run: basis, basis
/// representation and current basic solution, plus the work vectors of
/// the pivot loop, which every pivot reuses and which pass on to the
/// next run as [`Buffers`]. Artificial columns are virtual unit columns
/// `n ..= n + m - 1`.
struct Revised<'a, R: BasisRepr> {
    a: &'a CscMatrix,
    n: usize,
    m: usize,
    basis: Vec<usize>,
    repr: R,
    xb: Vec<f64>,
    /// Basic costs `c_B` of the last [`multipliers`](Self::multipliers)
    /// call…
    cb: Vec<f64>,
    /// …and its simplex multipliers `yᵀ = c_Bᵀ B⁻¹`.
    y: Vec<f64>,
    /// A row of `B⁻¹`: the row phase 1 scans to drive out a lingering
    /// artificial.
    rho: Vec<f64>,
    /// The ftran'd direction `B⁻¹·a_j` of the last [`ftran`](Self::ftran).
    u: Vec<f64>,
    /// Rows where `u` is nonzero, filled by [`pivot`](Self::pivot).
    support: Vec<usize>,
    /// `in_basis[j]` for real columns: basic columns are skipped by
    /// pricing. Their exact reduced cost is 0; pricing them anyway can
    /// pick up rounding noise as "improving" and pivot a column onto its
    /// own row forever.
    in_basis: Vec<bool>,
    /// Total pivots performed, for solver-session statistics.
    pivots: usize,
    /// Watchdog causes observed by this run, split for
    /// [`LpStats`](crate::LpStats): refactorization failed on a singular
    /// basis where incremental state must not be trusted…
    wd_singular: usize,
    /// …or a refactorization exposed an infeasible (negative) `x_B`.
    wd_infeasible: usize,
    /// When present, every pivot is recorded as `(entering column,
    /// leaving slot)` — the metamorphic pivot-sequence tests compare the
    /// FT and dense-inverse engines step by step through this. `None` on every
    /// production path (one branch per pivot, no allocation).
    trace: Option<Vec<(usize, usize)>>,
}

/// Snaps the `±1e-9` noise a refactorization leaves on the basic
/// variables of a degenerate vertex to exact 0.
fn snap_zeros(xb: &mut [f64]) {
    for v in xb {
        if v.abs() < 1e-7 {
            *v = 0.0;
        }
    }
}

/// How a simplex phase ended (hard errors go through `Result`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOutcome {
    /// No entering column: current basis is optimal.
    Optimal,
    /// The feasibility watchdog fired: restart from scratch.
    LostFeasibility,
}

/// The vectors of a [`Revised`] run, handed from one run to the next
/// ([`Revised::new`], [`Revised::into_parts`]) so that only the first run
/// on a system sizes them. Contents carry nothing between runs.
#[derive(Default)]
struct Buffers {
    basis: Vec<usize>,
    xb: Vec<f64>,
    in_basis: Vec<bool>,
    cb: Vec<f64>,
    y: Vec<f64>,
    rho: Vec<f64>,
    u: Vec<f64>,
    support: Vec<usize>,
}

/// Refills `v` with `len` zeros, keeping its capacity.
fn zeroed<T: Clone + Default>(mut v: Vec<T>, len: usize) -> Vec<T> {
    v.clear();
    v.resize(len, T::default());
    v
}

impl<'a, R: BasisRepr> Revised<'a, R> {
    /// A run from `basis` on the engine `repr` (already factorizing
    /// it), with `x_B` zero and the vectors of `buf`.
    fn new(
        a: &'a CscMatrix,
        basis: impl IntoIterator<Item = usize>,
        repr: R,
        buf: Buffers,
    ) -> Self {
        let n = a.cols();
        let m = a.rows();
        let mut b = buf.basis;
        b.clear();
        b.extend(basis);
        let mut in_basis = zeroed(buf.in_basis, n);
        for &j in &b {
            if j < n {
                in_basis[j] = true;
            }
        }
        let mut support = buf.support;
        support.clear();
        Revised {
            a,
            n,
            m,
            basis: b,
            repr,
            xb: zeroed(buf.xb, m),
            cb: zeroed(buf.cb, m),
            y: zeroed(buf.y, m),
            rho: zeroed(buf.rho, m),
            u: zeroed(buf.u, m),
            support,
            in_basis,
            pivots: 0,
            wd_singular: 0,
            wd_infeasible: 0,
            trace: None,
        }
    }

    /// Ends the run: its engine and its vectors.
    fn into_parts(self) -> (R, Buffers) {
        let buf = Buffers {
            basis: self.basis,
            xb: self.xb,
            in_basis: self.in_basis,
            cb: self.cb,
            y: self.y,
            rho: self.rho,
            u: self.u,
            support: self.support,
        };
        (self.repr, buf)
    }

    /// Rebuilds the representation and `x_B` from scratch off the
    /// current basis, resetting accumulated update error. Keeps the
    /// incremental state — and returns `false` — on a (numerically
    /// near-impossible) singular refactorization, or on an injected
    /// transient refactorization failure.
    fn refactor(&mut self, b: &[f64]) -> bool {
        if faults::trip(Site::Refactor) || !self.repr.refactor(self.a, self.n, &self.basis) {
            return false;
        }
        self.repr.ftran_dense(b, &mut self.xb);
        // Degenerate bases put basic variables at 0 whose exact value
        // re-emerges as ±1e-9 noise; snap those to 0 so the ratio test
        // stays non-negative.
        snap_zeros(&mut self.xb);
        true
    }

    /// [`refactor`](Self::refactor) plus the feasibility watchdog:
    /// `false` means this run must be abandoned — the (freshly
    /// recomputed, or after a failed refactorization still-incremental)
    /// `x_B` is meaningfully negative, or the refactorization itself
    /// failed on a representation that must not certify verdicts from
    /// its incremental state. A representation that trusts its
    /// incremental state proceeds on a failed refactorization with the
    /// watchdog applied to the stale `x_B` (the historical
    /// dense-inverse behavior).
    fn refactor_checked(&mut self, b: &[f64], feas_tol: f64) -> bool {
        if !self.refactor(b) && !self.repr.trusts_incremental_optimal() {
            self.wd_singular += 1;
            return false;
        }
        let ok = self.xb.iter().all(|&v| v >= -feas_tol);
        if !ok {
            self.wd_infeasible += 1;
        }
        ok
    }

    /// `u = B⁻¹ · column_j` (forward transformation). Only real columns
    /// are ever ftran'd: `entering` does not price artificials.
    fn ftran(&mut self, j: usize) {
        debug_assert!(j < self.n, "artificial columns never enter");
        let (idx, vals) = self.a.col(j);
        self.repr.ftran_col(idx, vals, &mut self.u);
    }

    /// Simplex multipliers `yᵀ = c_Bᵀ B⁻¹` for the given full cost
    /// vector (`costs[j]` for real columns, `art_cost` for artificials).
    fn multipliers(&mut self, costs: &[f64], art_cost: f64) {
        for (c, &bj) in self.cb.iter_mut().zip(&self.basis) {
            *c = if bj < self.n { costs[bj] } else { art_cost };
        }
        self.repr.btran_dense(&self.cb, &mut self.y);
    }

    /// Objective value `c_B · x_B`.
    fn objective(&self, costs: &[f64], art_cost: f64) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&bj, &v)| if bj < self.n { costs[bj] * v } else { art_cost * v })
            .sum()
    }

    /// Most-negative (Dantzig) or lowest-index (Bland) entering column
    /// with reduced cost below `-tol` against the multipliers `y`; basic
    /// columns and artificials never enter.
    fn entering(&self, costs: &[f64], bland: bool, tol: f64) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_val = -tol;
        for (j, &cj) in costs.iter().enumerate().take(self.n) {
            if self.in_basis[j] {
                continue;
            }
            let d = cj - self.a.col_dot(j, &self.y);
            if d < best_val {
                if bland {
                    return Some(j);
                }
                best_val = d;
                best = Some(j);
            }
        }
        best
    }

    /// Minimum-ratio test on direction `u`; ties break toward the lowest
    /// basis index under Bland, largest pivot element otherwise
    /// (mirroring the dense path). Basic values that drifted slightly
    /// negative are treated as 0 so the ratio test never goes negative.
    ///
    /// Two passes on the pivot-element threshold: pivots below
    /// `PIVOT_TOL` amplify update error catastrophically (dividing the
    /// pivot row by a near-zero), so eligibility first requires a
    /// healthy element and only falls back to the loose tolerance when
    /// no healthy row exists. Skipping a tiny-pivot row can leave it
    /// `O(PIVOT_TOL·θ)` negative — the feasibility check at the next
    /// refactorization is the backstop.
    fn leaving(&self, bland: bool) -> Option<usize> {
        self.leaving_with_tol(bland, PIVOT_TOL).or_else(|| self.leaving_with_tol(bland, EPS))
    }

    fn leaving_with_tol(&self, bland: bool, tol: f64) -> Option<usize> {
        let u = &self.u;
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            if u[i] > tol {
                let ratio = self.xb[i].max(0.0) / u[i];
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - 1e-12
                            || (ratio < br + 1e-12
                                && if bland {
                                    self.basis[i] < self.basis[bi]
                                } else {
                                    u[i] > u[bi]
                                })
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Pivots: column `col` (whose direction is in `u`) enters, the
    /// basic variable of `row` leaves. The nonzero support of `u` is
    /// computed once and shared by the `x_B` update and the
    /// representation update, so sparse entering directions only touch
    /// their own rows. Only real columns ever enter (`entering` does not
    /// price artificials), so the entering column's sparse data is
    /// always borrowable from `a`.
    fn pivot(&mut self, row: usize, col: usize) {
        let u = &self.u;
        debug_assert!(u[row].abs() > EPS, "pivot on (near-)zero element");
        debug_assert!(col < self.n, "artificial columns never re-enter");
        self.pivots += 1;
        if let Some(trace) = &mut self.trace {
            trace.push((col, row));
        }
        let leaving = self.basis[row];
        if leaving < self.n {
            self.in_basis[leaving] = false;
        }
        self.in_basis[col] = true;
        self.support.clear();
        self.support.extend(u.iter().enumerate().filter(|(_, f)| f.abs() > EPS).map(|(i, _)| i));
        let inv = 1.0 / u[row];
        self.xb[row] *= inv;
        for &i in &self.support {
            if i != row {
                self.xb[i] -= u[i] * self.xb[row];
                if self.xb[i].abs() < 1e-12 {
                    self.xb[i] = 0.0;
                }
            }
        }
        let (col_idx, col_vals) = self.a.col(col);
        self.repr.update(row, u, &self.support, col_idx, col_vals);
        self.basis[row] = col;
    }

    /// Runs simplex iterations to optimality for the given costs.
    /// `fresh` says the representation and `x_B` carry no incremental
    /// update error on entry (an exact identity basis or a basis that was
    /// refactorized immediately before the call).
    ///
    /// Robustness measures on top of the textbook loop:
    ///
    /// * **Sticky Bland** — after `DEGENERACY_PATIENCE` non-improving
    ///   pivots the rule switches to Bland and *stays* there; flipping
    ///   back to Dantzig on a noise-level objective change can re-enter
    ///   the same degenerate cycle.
    /// * **Verified termination** — an unbounded verdict reached from
    ///   incrementally-updated state is only trusted after a fresh
    ///   refactorization reproduces it (representation drift must never
    ///   turn a bounded LP into an "unbounded" one), and representations
    ///   that do not [trust their incremental
    ///   state](BasisRepr::trusts_incremental_optimal) get the same
    ///   treatment for optimality verdicts: accumulated factor-update
    ///   error can mask improving columns and drift the reported `x_B`
    ///   off `B⁻¹b` by far more than the optimality tolerance.
    /// * **Feasibility watchdog** — every refactorization recomputes
    ///   `x_B` exactly; if it has gone meaningfully negative the update
    ///   error has corrupted the trajectory, and the caller restarts the
    ///   solve from scratch ([`RunOutcome::LostFeasibility`]) instead of
    ///   grinding at a poisoned vertex.
    fn run(
        &mut self,
        costs: &[f64],
        art_cost: f64,
        b: &[f64],
        force_bland: bool,
        fresh: bool,
    ) -> Result<RunOutcome, LpError> {
        let b_norm = b.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let feas_tol = 1e-6 * (1.0 + b_norm);
        let mut stalled = 0usize;
        let mut bland = force_bland;
        let mut just_refactored = fresh;
        // `c_B · x_B` after the last pivot: the next pivot's starting
        // objective, until a refactorization rewrites `x_B`.
        let mut last_objective: Option<f64> = None;
        for it in 0..MAX_PIVOTS {
            if it > 0 && self.repr.should_refactor(it) && !just_refactored {
                // A mid-run refactorization is an error reset, not a
                // correctness requirement: when the current (typically
                // transient, degenerate) basis is numerically singular,
                // the incremental representation is still a valid
                // description of it, so the run continues on it and the
                // rebuild is retried once later pivots move off the
                // vertex. Verdicts are unaffected — `just_refactored`
                // stays false on a failed rebuild, so optimality and
                // unboundedness still require a *successful* fresh
                // factorization before they are trusted. The watchdog
                // applies either way, to the freshly recomputed `x_B`
                // when the rebuild succeeded and to the stale one when
                // it did not (the historical dense-inverse behavior).
                let refreshed = self.refactor(b);
                last_objective = None;
                if !self.xb.iter().all(|&v| v >= -feas_tol) {
                    self.wd_infeasible += 1;
                    return Ok(RunOutcome::LostFeasibility);
                }
                just_refactored = refreshed;
            }
            bland = bland || stalled >= DEGENERACY_PATIENCE;
            self.multipliers(costs, art_cost);
            let Some(col) = self.entering(costs, bland, EPS) else {
                if just_refactored || self.repr.trusts_incremental_optimal() {
                    return Ok(RunOutcome::Optimal);
                }
                // Optimality seen from drifted state: re-derive the
                // verdict (and the solution itself) from a fresh
                // factorization before trusting it.
                if !self.refactor_checked(b, feas_tol) {
                    return Ok(RunOutcome::LostFeasibility);
                }
                just_refactored = true;
                last_objective = None;
                continue;
            };
            self.ftran(col);
            let pivoted = if let Some(row) = self.leaving(bland) {
                Some((row, col))
            } else {
                // No pivotable row. Equality-heavy systems leave columns
                // whose reduced cost is barely past the tolerance from
                // elimination noise; re-price against a much stricter
                // threshold before considering an unbounded ray (the
                // dense oracle does the same).
                match self.entering(costs, bland, 1e-6) {
                    None if just_refactored || self.repr.trusts_incremental_optimal() => {
                        return Ok(RunOutcome::Optimal)
                    }
                    None => {
                        // Same drifted-state rule as the strict-tolerance
                        // exit above: this is equally an optimality
                        // verdict, and equally untrustworthy from an
                        // incrementally-updated factorization.
                        if !self.refactor_checked(b, feas_tol) {
                            return Ok(RunOutcome::LostFeasibility);
                        }
                        just_refactored = true;
                        last_objective = None;
                        None
                    }
                    Some(col2) => {
                        self.ftran(col2);
                        match self.leaving(bland) {
                            Some(row2) => Some((row2, col2)),
                            None if just_refactored => return Err(LpError::Unbounded),
                            None => {
                                // Re-derive the verdict from fresh state;
                                // the watchdog applies here too.
                                if !self.refactor_checked(b, feas_tol) {
                                    return Ok(RunOutcome::LostFeasibility);
                                }
                                just_refactored = true;
                                last_objective = None;
                                None
                            }
                        }
                    }
                }
            };
            let Some((row, col)) = pivoted else { continue };
            let before = last_objective.unwrap_or_else(|| self.objective(costs, art_cost));
            self.pivot(row, col);
            just_refactored = false;
            let after = self.objective(costs, art_cost);
            last_objective = Some(after);
            stalled = if (after - before).abs() <= 1e-12 { stalled + 1 } else { 0 };
        }
        Err(LpError::PivotLimit)
    }

    /// Extracts the solution over the real columns.
    fn solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (i, &bj) in self.basis.iter().enumerate() {
            if bj < self.n {
                x[bj] = self.xb[i];
            }
        }
        x
    }
}

/// Outcome of a revised-simplex core solve, reported back to the
/// [`LpSolver`](crate::LpSolver) session.
pub(crate) struct CoreOutcome {
    /// Solution over the real columns.
    pub x: Vec<f64>,
    /// Final basis (cached by the session when artificial-free).
    pub basis: Vec<usize>,
    /// Pivots spent, including failed warm-start and watchdog-restart
    /// attempts.
    pub pivots: usize,
    /// The supplied warm basis was accepted and ran to optimality.
    pub warm_start_used: bool,
    /// Feasibility-watchdog refactor-backstop trips: a refactorization
    /// found `x_B` meaningfully negative — or, on a representation that
    /// must not certify verdicts from incremental state, failed outright
    /// on a (numerically) singular basis — and the solve restarted from
    /// scratch. Nonzero counts mean the incremental updates corrupted a
    /// trajectory or conditioning collapsed — the symptoms the LU
    /// representation exists to eliminate.
    pub watchdog_restarts: usize,
    /// Watchdog causes observed across every attempted run (including
    /// abandoned warm starts): singular refactorizations…
    pub watchdog_singular: usize,
    /// …and infeasible (negative) recomputed `x_B`.
    pub watchdog_infeasible: usize,
    /// Cold re-solves forced into all-Bland mode (after a Dantzig
    /// pivot-limit grind or a watchdog trip).
    pub bland_retries: usize,
    /// Accuracy-triggered refactorization flags across all attempts
    /// (the FT determinant-identity cross-check disagreeing with the
    /// eliminated diagonal; see [`BasisRepr::accuracy_refactors`]).
    pub accuracy_refactors: usize,
}

/// Counters a [`Revised`] run leaves behind, accumulated across the
/// warm/cold/retry attempts of one core solve (each attempt builds a
/// fresh state, so the telemetry outlives them).
#[derive(Debug, Default, Clone, Copy)]
struct RunTelemetry {
    pivots: usize,
    wd_singular: usize,
    wd_infeasible: usize,
    accuracy_refactors: usize,
}

impl RunTelemetry {
    /// Folds a finished (or abandoned) run's counters in. The engine's
    /// accuracy count is a total since the engine was built or reset,
    /// and every attempt starts from a new engine, a reset one, or a
    /// stored factorization that no update has touched (see
    /// [`FactorMemo`]), so summing here never double-counts.
    fn absorb<R: BasisRepr>(&mut self, state: &Revised<'_, R>) {
        self.pivots += state.pivots;
        self.wd_singular += state.wd_singular;
        self.wd_infeasible += state.wd_infeasible;
        self.accuracy_refactors += state.repr.accuracy_refactors();
    }
}

/// Two-phase (or warm-started) revised simplex on an equilibrated
/// system, using the dense-inverse basis engine (the `sparse` backend).
pub(crate) fn solve_equilibrated(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    warm: Option<&[usize]>,
    factors: Option<&mut FactorMemo>,
) -> Result<CoreOutcome, LpError> {
    solve_equilibrated_with::<DenseInverse>(costs, a, b, warm, factors)
}

/// Two-phase (or warm-started) revised simplex using the LU +
/// Forrest–Tomlin basis engine (the `lu-ft` backend).
pub(crate) fn solve_equilibrated_lu_ft(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    warm: Option<&[usize]>,
    factors: Option<&mut FactorMemo>,
) -> Result<CoreOutcome, LpError> {
    solve_equilibrated_with::<FtBasis>(costs, a, b, warm, factors)
}

/// The basis-engine storage of one prepared system
/// ([`LpSolver::prepare`](crate::LpSolver::prepare)), kept from one solve
/// of the family to the next: the fresh factorization of the last warm
/// basis, a spare engine and the pivot loop's vectors.
///
/// A warm start takes the stored factorization out by move (no copy)
/// when its basis is exactly the stored one on the same basis engine,
/// and otherwise refactorizes a recycled engine reset to the identity
/// (the stored one when its basis is stale, else the spare). The
/// factorization comes back only when the run leaves it exactly as a
/// refactorization from the identity built it: when the warm basis was
/// rejected as primal infeasible, or when the run made no pivot (no
/// basis update, no refactorization). So a reused factorization is
/// always bit for bit the one a refactorization would build. Any other
/// run's engine, once done, becomes the spare whose storage a later
/// fresh factorization or cold run reuses; a reset engine behaves
/// exactly like a new one, so recycling changes no result either.
#[derive(Default)]
pub struct FactorMemo {
    /// A [`Slot`] of the basis engine last used on this system.
    slot: Option<Box<dyn Any + Send>>,
}

impl std::fmt::Debug for FactorMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorMemo").field("used", &self.slot.is_some()).finish()
    }
}

impl FactorMemo {
    /// The slot of engine `R`, replacing one of another engine.
    fn slot<R: BasisRepr + Send + 'static>(&mut self) -> &mut Slot<R> {
        if !self.slot.as_ref().is_some_and(|s| s.is::<Slot<R>>()) {
            self.slot = Some(Box::new(Slot::<R>::default()));
        }
        self.slot.as_mut().and_then(|s| s.downcast_mut()).expect("slot of engine R")
    }
}

/// The engines and vectors one solve hands to the next
/// ([`FactorMemo`]); an ordinary solve uses a slot of its own, so its
/// warm, cold and retry runs still share one engine.
struct Slot<R> {
    /// The untouched fresh factorization of `basis`, if held.
    stored: Option<R>,
    basis: Vec<usize>,
    /// An engine whose run is over, kept for its storage.
    spare: Option<R>,
    buf: Buffers,
}

impl<R> Default for Slot<R> {
    fn default() -> Self {
        Slot { stored: None, basis: Vec::new(), spare: None, buf: Buffers::default() }
    }
}

impl<R: BasisRepr> Slot<R> {
    /// An engine at the identity basis: `recycled` or the spare, reset,
    /// or a new one.
    fn identity(&mut self, recycled: Option<R>, m: usize) -> R {
        match recycled.or_else(|| self.spare.take()) {
            Some(mut repr) => {
                repr.reset();
                repr
            }
            None => R::identity(m),
        }
    }

    /// The factorization of `basis` on `a`: the stored one, moved out,
    /// when it is this basis, else the identity refactorized (`None`
    /// when singular, the engine kept as the spare).
    fn factorize(&mut self, a: &CscMatrix, basis: &[usize]) -> Option<R> {
        if self.basis == basis {
            if let Some(repr) = self.stored.take() {
                return Some(repr);
            }
        }
        // A stored factorization of another basis is stale: its engine
        // is the one to refactorize, which leaves the spare for a cold
        // run after this warm start.
        let stale = self.stored.take();
        let mut repr = self.identity(stale, a.rows());
        if repr.refactor(a, a.cols(), basis) {
            Some(repr)
        } else {
            self.spare = Some(repr);
            None
        }
    }

    /// Takes back a finished run's engine and vectors. The engine is
    /// stored as the fresh factorization of `fresh` when the run left it
    /// untouched from that basis's factorization, else kept as the spare.
    fn take_back(&mut self, state: Revised<'_, R>, fresh: Option<&[usize]>) {
        let (repr, buf) = state.into_parts();
        self.buf = buf;
        match fresh {
            Some(basis) => {
                self.basis.clear();
                self.basis.extend_from_slice(basis);
                self.stored = Some(repr);
            }
            None => self.spare = Some(repr),
        }
    }
}

/// Result of a traced run: the outcome (`Ok(Some(x))` optimal,
/// `Ok(None)` watchdog-abandoned) plus the recorded
/// `(entering column, leaving slot)` pivot sequence.
pub(crate) type TraceOutcome = (Result<Option<Vec<f64>>, LpError>, Vec<(usize, usize)>);

/// Debug/test-only cold two-phase solve on basis engine `R` that records
/// every pivot as `(entering column, leaving slot)`. The metamorphic
/// suite runs the FT and dense-inverse engines through this side by
/// side: with Bland's rule both engines must visit the **identical**
/// pivot sequence on deterministic instances, so any divergence
/// localizes a bug to the basis representation rather than the shared
/// pricing loop.
pub(crate) fn trace_cold_pivots<R: BasisRepr>(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    force_bland: bool,
) -> TraceOutcome {
    let mut tele = RunTelemetry::default();
    let mut trace = Vec::new();
    let mut slot = Slot::default();
    let out = cold_two_phase_traced::<R>(
        costs,
        a,
        b,
        force_bland,
        &mut tele,
        &mut slot,
        Some(&mut trace),
    );
    (out.map(|r| r.map(|(x, _)| x)), trace)
}

/// Bench hook behind `qava_lp::debug::update_solve_cycle`: one
/// factorization (the trivial artificial identity), a greedy chain of
/// `updates` column exchanges (columns drawn in a fixed LCG order; each
/// enters the slot with its largest healthy direction component, so
/// slots are revisited the way degenerate εmax runs revisit them), then
/// `solves` rounds of one sparse-column ftran plus one dense btran —
/// the pivot loop's solve mix — with **zero** refactorizations
/// throughout. Every engine runs the identical chain, so the result
/// measures ftran/btran work at equal refactorization counts. Returns a
/// checksum so the optimizer cannot elide the solves.
pub(crate) fn update_solve_cycle<R: BasisRepr>(
    a: &CscMatrix,
    updates: usize,
    solves: usize,
) -> f64 {
    let m = a.rows();
    let n = a.cols();
    let mut repr = R::identity(m);
    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut done = 0usize;
    let mut rng = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut attempts = 0usize;
    let mut u = vec![0.0; m];
    while done < updates && attempts < 32 * updates {
        attempts += 1;
        let col = next() % n;
        let (idx, vals) = a.col(col);
        if idx.is_empty() || basis.contains(&col) {
            continue;
        }
        repr.ftran_col(idx, vals, &mut u);
        let Some((slot, _)) = u
            .iter()
            .enumerate()
            .filter(|&(_, v)| v.abs() > 0.1)
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
        else {
            continue;
        };
        let support: Vec<usize> = (0..m).filter(|&i| u[i].abs() > EPS).collect();
        repr.update(slot, &u, &support, idx, vals);
        basis[slot] = col;
        done += 1;
    }
    // Hard assert: benches run in release, and a silently shorter chain
    // would make the `basis_update{N}` rows measure something other than
    // their names claim while still gating CI against the old baseline.
    assert_eq!(done, updates, "update_solve_cycle: exchange-chain construction starved");
    let cb: Vec<f64> = (0..m).map(|i| (i as f64) * 0.37 - 1.1).collect();
    let mut y = vec![0.0; m];
    let mut checksum = 0.0;
    for s in 0..solves {
        let col = next() % n;
        let (idx, vals) = a.col(col);
        repr.ftran_col(idx, vals, &mut u);
        checksum += u[s % m];
        repr.btran_dense(&cb, &mut y);
        checksum += y[(s / 2) % m];
    }
    checksum
}

fn solve_equilibrated_with<R: BasisRepr + Send + 'static>(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    warm: Option<&[usize]>,
    factors: Option<&mut FactorMemo>,
) -> Result<CoreOutcome, LpError> {
    let m = a.rows();
    let n = a.cols();
    let mut tele = RunTelemetry::default();
    let mut watchdog_restarts = 0usize;
    let outcome = |tele: RunTelemetry,
                   restarts: usize,
                   x: Vec<f64>,
                   basis: Vec<usize>,
                   warm_start_used: bool,
                   bland_retries: usize| CoreOutcome {
        x,
        basis,
        pivots: tele.pivots,
        warm_start_used,
        watchdog_restarts: restarts,
        watchdog_singular: tele.wd_singular,
        watchdog_infeasible: tele.wd_infeasible,
        bland_retries,
        accuracy_refactors: tele.accuracy_refactors,
    };
    if m == 0 {
        return if costs.iter().any(|&c| c < -EPS) {
            Err(LpError::Unbounded)
        } else {
            Ok(outcome(tele, 0, vec![0.0; n], Vec::new(), false, 0))
        };
    }
    let mut own = Slot::default();
    let slot = match factors {
        Some(factors) => factors.slot::<R>(),
        None => &mut own,
    };

    // ---- Warm start: refactorize the cached basis; use it if primal
    // feasible. A failed warm start costs one refactorization. Anything
    // short of a clean optimum — lost feasibility, a pivot-limit grind
    // on a stale degenerate basis — falls through to the cold path, so
    // caching can never change a result, only its speed. (Infeasible
    // cannot arise here: the warm basis is primal feasible by check;
    // Unbounded is a verified verdict and is returned.) A warm start
    // that leaves its factorization exactly as fresh — rejected as
    // infeasible, or optimal without a pivot — stores it for the next
    // warm start from this basis.
    if let Some(basis) = warm {
        if basis.len() == m && basis.iter().all(|&j| j < n) {
            if let Some(repr) = slot.factorize(a, basis) {
                let mut state = Revised::new(a, basis.iter().copied(), repr, take(&mut slot.buf));
                state.repr.ftran_dense(b, &mut state.xb);
                if state.xb.iter().all(|&v| v >= -1e-9) {
                    for v in &mut state.xb {
                        *v = v.max(0.0);
                    }
                    let run = state.run(costs, 0.0, b, false, true);
                    tele.absorb(&state);
                    match run {
                        Ok(RunOutcome::Optimal) => {
                            let x = state.solution();
                            let final_basis = state.basis.clone();
                            let untouched = state.pivots == 0;
                            slot.take_back(state, untouched.then_some(basis));
                            return Ok(outcome(tele, watchdog_restarts, x, final_basis, true, 0));
                        }
                        Ok(RunOutcome::LostFeasibility) => watchdog_restarts += 1,
                        Err(LpError::PivotLimit) => {}
                        Err(e) => return Err(e),
                    }
                    slot.take_back(state, None);
                } else {
                    slot.take_back(state, Some(basis));
                }
            }
        }
    }

    // Cold two-phase; retried once in all-Bland mode if the feasibility
    // watchdog fires (pathological conditioning) — or if the Dantzig
    // attempt ground into the pivot limit: the pathological walk3d-style
    // LPs can cycle for tens of thousands of degenerate pivots under
    // Dantzig pricing, while Bland's rule terminates by construction.
    match cold_two_phase::<R>(costs, a, b, false, &mut tele, slot) {
        Ok(Some((x, basis))) => {
            return Ok(outcome(tele, watchdog_restarts, x, basis, false, 0))
        }
        Ok(None) => watchdog_restarts += 1,
        Err(LpError::PivotLimit) => {}
        Err(e) => return Err(e),
    }
    match cold_two_phase::<R>(costs, a, b, true, &mut tele, slot)? {
        Some((x, basis)) => Ok(outcome(tele, watchdog_restarts, x, basis, false, 1)),
        None => Err(LpError::PivotLimit),
    }
}

/// Textbook two-phase solve on an engine and vectors from `slot`, which
/// gets them back at the end. `Ok(None)` means the feasibility watchdog
/// fired and the caller should retry more conservatively.
#[allow(clippy::type_complexity)]
fn cold_two_phase<R: BasisRepr>(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    force_bland: bool,
    tele: &mut RunTelemetry,
    slot: &mut Slot<R>,
) -> Result<Option<(Vec<f64>, Vec<usize>)>, LpError> {
    cold_two_phase_traced::<R>(costs, a, b, force_bland, tele, slot, None)
}

/// [`cold_two_phase`] with an optional pivot trace (see
/// [`trace_cold_pivots`]); the production paths pass `None`.
#[allow(clippy::type_complexity)]
fn cold_two_phase_traced<R: BasisRepr>(
    costs: &[f64],
    a: &CscMatrix,
    b: &[f64],
    force_bland: bool,
    tele: &mut RunTelemetry,
    slot: &mut Slot<R>,
    trace: Option<&mut Vec<(usize, usize)>>,
) -> Result<Option<(Vec<f64>, Vec<usize>)>, LpError> {
    let m = a.rows();
    let n = a.cols();

    // ---- Phase 1: artificial identity basis, minimize their sum. ----
    let repr = slot.identity(None, m);
    let mut state = Revised::new(a, n..n + m, repr, take(&mut slot.buf));
    state.xb.copy_from_slice(b);
    if trace.is_some() {
        state.trace = Some(Vec::new());
    }
    // Every exit folds the run's counters in, hands back its trace and
    // recycles its engine and vectors.
    let mut trace = trace;
    let mut finish = |mut state: Revised<'_, R>, tele: &mut RunTelemetry| {
        tele.absorb(&state);
        if let Some(t) = trace.as_deref_mut() {
            *t = state.trace.take().unwrap_or_default();
        }
        slot.take_back(state, None);
    };
    let phase1_costs = vec![0.0; n];
    let phase1 = match state.run(&phase1_costs, 1.0, b, force_bland, true) {
        Ok(outcome) => outcome,
        Err(e) => {
            finish(state, tele);
            return Err(e);
        }
    };
    if phase1 == RunOutcome::LostFeasibility {
        finish(state, tele);
        return Ok(None);
    }
    let b_norm = b.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if state.objective(&phase1_costs, 1.0) > 1e-7 * (1.0 + b_norm) {
        finish(state, tele);
        return Err(LpError::Infeasible);
    }

    // Drive lingering artificials out of the basis where possible; rows
    // where no real column has a nonzero in B⁻¹A are redundant and keep
    // their artificial basic at value 0 (it can never re-enter).
    for i in 0..m {
        if state.basis[i] >= n {
            state.repr.binv_row(i, &mut state.rho);
            let found = (0..n).find(|&j| state.a.col_dot(j, &state.rho).abs() > 1e-7);
            if let Some(j) = found {
                state.ftran(j);
                state.pivot(i, j);
            }
        }
    }

    // ---- Phase 2: real costs. Artificials cannot re-enter: `entering`
    // only prices real columns. ----
    let phase2 = state.run(costs, 0.0, b, force_bland, false);
    let x = state.solution();
    let basis = state.basis.clone();
    finish(state, tele);
    if phase2? == RunOutcome::LostFeasibility {
        return Ok(None);
    }
    Ok(Some((x, basis)))
}

#[cfg(test)]
mod tests {
    use crate::presolve::StdRows;
    use crate::{BackendChoice, LpError, LpSolver};

    /// The revised-simplex backends every core test runs through.
    const REVISED_BACKENDS: [BackendChoice; 2] = [BackendChoice::Sparse, BackendChoice::LuFt];

    fn rows_of(dense: Vec<Vec<f64>>) -> Vec<Vec<(usize, f64)>> {
        dense
            .into_iter()
            .map(|r| r.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(j, &v)| (j, v)).collect())
            .collect()
    }

    fn solve_std_rows(choice: BackendChoice, lp: StdRows) -> Result<Vec<f64>, LpError> {
        LpSolver::with_choice(choice).solve_std_rows(lp)
    }

    fn solve(
        choice: BackendChoice,
        costs: Vec<f64>,
        rows: Vec<Vec<f64>>,
        b: Vec<f64>,
    ) -> Result<Vec<f64>, LpError> {
        let ncols = costs.len();
        solve_std_rows(choice, StdRows { costs, rows: rows_of(rows), b, ncols })
    }

    #[test]
    fn matches_dense_on_textbook_lp() {
        for choice in REVISED_BACKENDS {
            // min −x1 − x2 s.t. x1 + x2 + s = 1.
            let x = solve(choice, vec![-1.0, -1.0, 0.0], vec![vec![1.0, 1.0, 1.0]], vec![1.0])
                .unwrap();
            assert!((x[0] + x[1] - 1.0).abs() < 1e-9, "{choice}");
        }
    }

    #[test]
    fn infeasible_and_unbounded() {
        for choice in REVISED_BACKENDS {
            // x0 = 1 and x0 = 2 (after pattern dedup: conflicting duplicates).
            let r = solve(choice, vec![0.0], vec![vec![1.0], vec![1.0]], vec![1.0, 2.0]);
            assert_eq!(r.unwrap_err(), LpError::Infeasible, "{choice}");
            // min −x with no constraints on x.
            let r = solve(choice, vec![-1.0], vec![], vec![]);
            assert_eq!(r.unwrap_err(), LpError::Unbounded, "{choice}");
        }
    }

    #[test]
    fn warm_start_reuses_basis() {
        // Same pattern solved twice with nearby numbers in ONE session;
        // the second solve must produce the same optimum through the warm
        // path, and the session must record the cache hit — for both
        // warm-capable backends.
        for choice in REVISED_BACKENDS {
            let mut solver = LpSolver::with_choice(choice);
            for rhs in [1.0, 1.1] {
                let x = solver
                    .solve_std_rows(StdRows {
                        costs: vec![-1.0, -2.0, 0.0, 0.0],
                        rows: rows_of(vec![vec![1.0, 1.0, 1.0, 0.0], vec![1.0, -1.0, 0.0, 1.0]]),
                        b: vec![rhs, 0.5],
                        ncols: 4,
                    })
                    .unwrap();
                let obj = -x[0] - 2.0 * x[1];
                let expect = -2.0 * rhs;
                assert!(
                    (obj - expect).abs() < 1e-7,
                    "{choice} rhs {rhs}: got {obj}, want {expect}"
                );
            }
            assert_eq!(solver.stats().warm_start_hits, 1, "{choice}: second solve warm-starts");
        }
    }

    #[test]
    fn polylow_cycling_repro() {
        let costs = vec![-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let b = vec![-0.0, -0.0, -0.0, 0.0009994998332499509, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0];
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(4, -1.0), (5, 1.0), (6, 1.0), (7, -1.0), (8, -1.0), (9, -1000.0), (10, -100.0), (11, -1000000.0), (12, -100000.0), (13, -10000.0)],
            vec![(2, -1.0), (3, 1.0), (9, -1.0), (10, 1.0), (11, -2000.0), (12, 900.0), (13, 200.0)],
            vec![(0, -1.0), (1, 1.0), (11, -1.0), (12, 1.0), (13, -1.0)],
            vec![(0, 0.999), (1, -0.999), (2, 0.49949999999999994), (3, -0.49949999999999994), (14, -1.0), (15, -1000.0), (16, -100.0), (17, -99.0), (18, -1000000.0), (19, -100000.0), (20, -99000.0), (21, -10000.0), (22, -9900.0), (23, -9801.0)],
            vec![(0, 0.9989999999999999), (1, -0.9989999999999999), (15, -1.0), (16, 1.0), (17, 1.0), (18, -2000.0), (19, 900.0), (20, 901.0), (21, 200.0), (22, 199.0), (23, 198.0)],
            vec![(18, -1.0), (19, 1.0), (20, 1.0), (21, -1.0), (22, -1.0), (23, -1.0)],
            vec![(4, -1.0), (5, 1.0), (24, -1.0), (25, -1000.0), (26, -100.0), (27, 100.0), (28, -1000000.0), (29, -100000.0), (30, 100000.0), (31, -10000.0), (32, 10000.0), (33, -10000.0)],
            vec![(2, -1.0), (3, 1.0), (25, -1.0), (26, 1.0), (27, -1.0), (28, -2000.0), (29, 900.0), (30, -900.0), (31, 200.0), (32, -200.0), (33, 200.0)],
            vec![(0, -1.0), (1, 1.0), (28, -1.0), (29, 1.0), (30, -1.0), (31, -1.0), (32, 1.0), (33, -1.0)],
            vec![(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0), (4, 1.0), (5, -1.0), (34, 1.0)],
        ];
        for choice in REVISED_BACKENDS {
            let r = solve_std_rows(
                choice,
                StdRows { costs: costs.clone(), rows: rows.clone(), b: b.clone(), ncols: 35 },
            );
            assert!(r.is_ok(), "{choice}: got {r:?}");
        }
    }

    /// A reset dense inverse is exactly the identity one, whatever
    /// updates it went through.
    #[test]
    fn dense_inverse_reset_is_identity() {
        use super::{BasisRepr, DenseInverse};
        let mut repr = DenseInverse::identity(3);
        repr.update(1, &[0.5, 2.0, -1.0], &[0, 1, 2], &[], &[]);
        assert_ne!(repr.binv, qava_linalg::Matrix::identity(3));
        repr.reset();
        assert_eq!(repr.binv, qava_linalg::Matrix::identity(3));
    }

    #[test]
    fn redundant_zero_row_survives() {
        for choice in REVISED_BACKENDS {
            // Duplicate rows are presolved away; the optimum is unchanged.
            let x = solve(
                choice,
                vec![1.0, 0.0],
                vec![vec![1.0, 1.0], vec![2.0, 2.0]],
                vec![1.0, 2.0],
            )
            .unwrap();
            assert!((x[0] + x[1] - 1.0).abs() < 1e-9, "{choice}");
            assert!(x[0].abs() < 1e-9, "{choice}");
        }
    }
}
