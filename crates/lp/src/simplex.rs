//! Dense two-phase primal simplex on the standard form
//! `min cᵀx  s.t.  A·x = b,  x ≥ 0,  b ≥ 0`.
//!
//! Phase 1 introduces one artificial variable per row and minimizes their
//! sum; phase 2 continues from the feasible basis with the true costs.
//! Pricing is Dantzig (most negative reduced cost) until a degeneracy
//! counter trips, after which Bland's rule guarantees termination.
//!
//! This is the **dense tableau backend**: registered as the
//! [`DenseTableau`](crate::DenseTableau) implementation of the
//! [`LpBackend`](crate::LpBackend) trait (where it receives
//! already-presolved, already-equilibrated systems from the
//! [`LpSolver`](crate::LpSolver) session), and kept fully functional as a
//! standalone differential-testing oracle ([`solve_standard_dense`]).
//! `--lp-backend dense` (or [`BackendChoice::Dense`](crate::BackendChoice))
//! selects it for a whole session at runtime.

use crate::LpError;
use qava_linalg::{vecops, Matrix, EPS};

/// Hard cap on simplex pivots per phase; far above anything the synthesis
/// LPs need, but prevents infinite loops on adversarial numeric input.
pub const MAX_PIVOTS: usize = 50_000;

/// Number of consecutive non-improving pivots tolerated before switching
/// from Dantzig pricing to Bland's anti-cycling rule.
const DEGENERACY_PATIENCE: usize = 40;

/// Solves `min cᵀx, A·x = b, x ≥ 0` (with `b ≥ 0`) with the dense
/// two-phase tableau and returns the optimal `x`.
///
/// The system is max-norm equilibrated first (rows, then columns): template
/// LPs routinely mix coefficients like a failure probability `1e-7` with
/// invariant bounds around `1e2`, and an unscaled tableau then misjudges
/// feasibility against its absolute pivot tolerances.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`], or
/// [`LpError::PivotLimit`].
pub fn solve_standard_dense(costs: &[f64], a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LpError> {
    let m = a.rows();
    let n = a.cols();
    debug_assert_eq!(costs.len(), n);
    debug_assert_eq!(b.len(), m);
    debug_assert!(b.iter().all(|&v| v >= 0.0));

    if m == 0 {
        // No constraints: optimum is 0 unless some cost is negative.
        return if costs.iter().any(|&c| c < -EPS) {
            Err(LpError::Unbounded)
        } else {
            Ok(vec![0.0; n])
        };
    }

    // ---- Equilibration: scale rows then columns to unit max-norm. ----
    let mut sa = a.clone();
    let mut sb = b.to_vec();
    for (i, sbi) in sb.iter_mut().enumerate() {
        let r = vecops::norm_inf(sa.row(i));
        if r > 0.0 && !(0.25..=4.0).contains(&r) {
            let inv = 1.0 / r;
            vecops::scale_in_place(inv, sa.row_mut(i));
            *sbi *= inv;
        }
    }
    let mut col_scale = vec![1.0f64; n];
    for (j, s) in col_scale.iter_mut().enumerate() {
        let c = (0..m).fold(0.0f64, |acc, i| acc.max(sa[(i, j)].abs()));
        if c > 0.0 && !(0.25..=4.0).contains(&c) {
            *s = 1.0 / c;
            for i in 0..m {
                sa[(i, j)] *= *s;
            }
        }
    }
    let scaled_costs: Vec<f64> = costs.iter().zip(&col_scale).map(|(c, s)| c * s).collect();
    let mut pivots = 0usize;
    let mut x = solve_standard_unscaled(&scaled_costs, &sa, &sb, &mut pivots)?;
    for (xj, s) in x.iter_mut().zip(&col_scale) {
        *xj *= s;
    }
    Ok(x)
}

/// Core two-phase solve on an **already equilibrated** system; entry point
/// of the [`DenseTableau`](crate::DenseTableau) backend, which receives
/// scaled systems from the session pipeline. Adds the pivots spent to
/// `pivots`.
pub(crate) fn solve_standard_unscaled(
    costs: &[f64],
    a: &Matrix,
    b: &[f64],
    pivots: &mut usize,
) -> Result<Vec<f64>, LpError> {
    let m = a.rows();
    let n = a.cols();

    if m == 0 {
        return if costs.iter().any(|&c| c < -EPS) {
            Err(LpError::Unbounded)
        } else {
            Ok(vec![0.0; n])
        };
    }

    // ---- Phase 1: artificial columns n..n+m with identity basis. ----
    let mut t = Tableau::new(a, b, n + m);
    for i in 0..m {
        t.body[(i, n + i)] = 1.0;
        t.basis[i] = n + i;
    }
    let phase1_costs: Vec<f64> = (0..n + m).map(|j| if j < n { 0.0 } else { 1.0 }).collect();
    t.install_costs(&phase1_costs);
    t.run()?;
    let b_norm = b.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if t.objective_value() > 1e-7 * (1.0 + b_norm) {
        return Err(LpError::Infeasible);
    }
    // Pivot lingering artificials out of the basis where possible.
    for i in 0..m {
        if t.basis[i] >= n {
            // When every real column is zero on this row, the row is
            // redundant: it keeps its artificial basic at value 0,
            // harmless as long as the artificial never re-enters —
            // enforced below by cost.
            if let Some(j) = (0..n).find(|&j| t.body[(i, j)].abs() > 1e-7) {
                t.pivot(i, j);
            }
        }
    }

    // ---- Phase 2: real costs; artificials are blocked from entering. ----
    let mut phase2_costs = costs.to_vec();
    phase2_costs.extend(std::iter::repeat_n(0.0, m));
    t.banned_from = n;
    t.install_costs(&phase2_costs);
    t.run()?;
    *pivots += t.pivots;

    let mut x = vec![0.0; n];
    for i in 0..m {
        if t.basis[i] < n {
            x[t.basis[i]] = t.rhs[i];
        }
    }
    Ok(x)
}

/// A simplex tableau: constraint body, right-hand side, reduced-cost row and
/// the current basis.
struct Tableau {
    body: Matrix,
    rhs: Vec<f64>,
    /// Reduced costs `z_j`; entering columns have `z_j < -EPS`.
    reduced: Vec<f64>,
    /// Negated objective value (tableau convention).
    obj: f64,
    basis: Vec<usize>,
    /// Columns `>= banned_from` may never enter the basis (artificials in
    /// phase 2).
    banned_from: usize,
    /// Total pivots performed, for solver-session statistics.
    pivots: usize,
    /// Scratch copy of the (scaled) pivot row so the row eliminations can
    /// run through `vecops::axpy` while the matrix row being updated is
    /// mutably borrowed.
    scratch: Vec<f64>,
}

impl Tableau {
    fn new(a: &Matrix, b: &[f64], total_cols: usize) -> Self {
        let m = a.rows();
        let mut body = Matrix::zeros(m, total_cols);
        for i in 0..m {
            body.row_mut(i)[..a.cols()].copy_from_slice(a.row(i));
        }
        Tableau {
            body,
            rhs: b.to_vec(),
            reduced: vec![0.0; total_cols],
            obj: 0.0,
            basis: vec![usize::MAX; m],
            banned_from: total_cols,
            pivots: 0,
            scratch: Vec::with_capacity(total_cols),
        }
    }

    /// Recomputes the reduced-cost row for new objective coefficients while
    /// keeping the current basis (prices out the basic columns).
    fn install_costs(&mut self, costs: &[f64]) {
        self.reduced.copy_from_slice(costs);
        self.obj = 0.0;
        for i in 0..self.basis.len() {
            let bj = self.basis[i];
            let cb = costs[bj];
            if cb != 0.0 {
                vecops::axpy(-cb, self.body.row(i), &mut self.reduced);
                self.obj -= cb * self.rhs[i];
            }
        }
    }

    fn objective_value(&self) -> f64 {
        -self.obj
    }

    /// Pivots on `(row, col)`: `col` enters the basis, the old basic of
    /// `row` leaves.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let pv = self.body[(row, col)];
        debug_assert!(pv.abs() > EPS, "pivot on (near-)zero element");
        let inv = 1.0 / pv;
        vecops::scale_in_place(inv, self.body.row_mut(row));
        self.rhs[row] *= inv;
        // Snapshot the scaled pivot row once: the eliminations below
        // mutably borrow the target rows, and the kernel-layer axpy wants
        // the source as one contiguous slice anyway.
        self.scratch.clear();
        self.scratch.extend_from_slice(self.body.row(row));
        let pivot_rhs = self.rhs[row];
        for i in 0..self.body.rows() {
            if i != row {
                let f = self.body[(i, col)];
                if f.abs() > EPS {
                    vecops::axpy(-f, &self.scratch, self.body.row_mut(i));
                    self.rhs[i] -= f * pivot_rhs;
                    if self.rhs[i].abs() < 1e-12 {
                        self.rhs[i] = 0.0;
                    }
                }
            }
        }
        let f = self.reduced[col];
        if f.abs() > EPS {
            vecops::axpy(-f, &self.scratch, &mut self.reduced);
            self.obj -= f * pivot_rhs;
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimality.
    fn run(&mut self) -> Result<(), LpError> {
        let mut stalled = 0usize;
        for _ in 0..MAX_PIVOTS {
            let bland = stalled >= DEGENERACY_PATIENCE;
            let Some(col) = self.entering_column(bland, EPS) else {
                return Ok(()); // optimal
            };
            let Some(row) = self.leaving_row(col, bland) else {
                // No ratio-test row for this column. On equality-heavy
                // systems, elimination noise leaves columns with reduced
                // costs barely past the tolerance; declaring the LP
                // unbounded on those turns a rounding artifact into a
                // wrong verdict. Re-price against a much stricter
                // threshold: a genuinely improving ray keeps a clearly
                // negative reduced cost; noise does not.
                let Some(col2) = self.entering_column(bland, 1e-6) else {
                    return Ok(()); // optimal within tolerance
                };
                if self.leaving_row(col2, bland).is_none() {
                    return Err(LpError::Unbounded);
                }
                // A different, pivotable column improves strictly; take it.
                let row2 = self.leaving_row(col2, bland).expect("checked above");
                self.pivot(row2, col2);
                continue;
            };
            let before = self.obj;
            self.pivot(row, col);
            if (self.obj - before).abs() <= 1e-12 {
                stalled += 1;
            } else {
                stalled = 0;
            }
        }
        Err(LpError::PivotLimit)
    }

    /// Dantzig (most negative reduced cost) or Bland (lowest index)
    /// pricing, considering only columns with reduced cost below `-tol`.
    fn entering_column(&self, bland: bool, tol: f64) -> Option<usize> {
        let limit = self.banned_from;
        if bland {
            (0..limit).find(|&j| self.reduced[j] < -tol)
        } else {
            let mut best = None;
            let mut best_val = -tol;
            for j in 0..limit {
                if self.reduced[j] < best_val {
                    best_val = self.reduced[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Minimum-ratio test; under Bland's rule ties break toward the lowest
    /// basis index.
    fn leaving_row(&self, col: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.body.rows() {
            let coeff = self.body[(i, col)];
            if coeff > EPS {
                let ratio = self.rhs[i] / coeff;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - 1e-12
                            || (ratio < br + 1e-12
                                && if bland {
                                    self.basis[i] < self.basis[bi]
                                } else {
                                    coeff > self.body[(bi, col)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_form_direct() {
        // min -x1 - x2 s.t. x1 + x2 + s = 1 -> optimum -1 at any vertex.
        let a = Matrix::from_rows(vec![vec![1.0, 1.0, 1.0]]);
        let x = solve_standard_dense(&[-1.0, -1.0, 0.0], &a, &[1.0]).unwrap();
        assert!((x[0] + x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_constraint_matrix() {
        let a = Matrix::zeros(0, 2);
        let x = solve_standard_dense(&[1.0, 1.0], &a, &[]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(
            solve_standard_dense(&[-1.0, 0.0], &a, &[]).unwrap_err(),
            LpError::Unbounded
        );
    }

    #[test]
    fn redundant_zero_row() {
        // Second row is 0 = 0 after phase 1; must not break phase 2.
        let a = Matrix::from_rows(vec![vec![1.0, 1.0], vec![2.0, 2.0]]);
        let x = solve_standard_dense(&[1.0, 0.0], &a, &[1.0, 2.0]).unwrap();
        assert!((x[0] + x[1] - 1.0).abs() < 1e-9);
        assert!(x[0].abs() < 1e-9, "cost pushes x0 to zero");
    }
}
