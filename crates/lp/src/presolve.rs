//! Presolve for standard-form LPs `min cᵀx, A·x = b, x ≥ 0, b ≥ 0`.
//!
//! The synthesis pipelines generate thousands of structurally similar
//! template LPs whose rows are full of easy structure: empty rows from
//! vacuous coefficient matches, duplicate rows from repeated region
//! constraints, and singleton rows that outright fix a variable. Removing
//! them before the simplex both shrinks the basis and removes the
//! degenerate pivots those rows would cause.
//!
//! Reductions, iterated to a fixpoint:
//!
//! 1. **Empty rows** — `0 = b` is dropped when `b ≈ 0`, infeasible
//!    otherwise.
//! 2. **Singleton rows** — `a·x_j = b` fixes `x_j = b/a` (infeasible if
//!    negative); the fixed variable is substituted out of every row.
//! 3. **Duplicate rows** — rows with an identical normalized pattern are
//!    deduplicated. Equal right-hand sides drop the copy; clearly
//!    conflicting ones prove infeasibility; borderline ones are kept for
//!    the simplex to arbitrate.
//! 4. **Empty columns** — a variable absent from every row is fixed at 0
//!    (or proves the LP unbounded when its cost is negative).
//!
//! The output is the reduced problem plus a [`Restore`] recipe mapping a
//! reduced solution back onto the original variable space.

use crate::LpError;
use qava_linalg::EPS;

/// A standard-form LP in sparse row representation.
#[derive(Debug, Clone)]
pub struct StdRows {
    /// Objective coefficients, one per column.
    pub costs: Vec<f64>,
    /// Sparse rows `[(col, coeff), …]`; the invariant `b ≥ 0` is kept by
    /// sign-normalizing rows.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Right-hand side, aligned with `rows`.
    pub b: Vec<f64>,
    /// Total number of columns.
    pub ncols: usize,
}

/// Recipe to map a reduced solution back to the original columns.
#[derive(Debug, Clone)]
pub struct Restore {
    /// Original column index of each reduced column.
    pub kept_cols: Vec<usize>,
    /// `(original column, value)` for variables fixed by presolve.
    pub fixed: Vec<(usize, f64)>,
    /// Number of original columns.
    pub ncols: usize,
    /// An empty column with negative cost was removed: the objective is
    /// unbounded **if** the remaining system turns out feasible. The
    /// caller must check this after solving the reduced LP — reporting
    /// unboundedness eagerly would mask infeasibility, which takes
    /// precedence (matching the two-phase oracle).
    pub unbounded_if_feasible: bool,
}

impl Restore {
    /// Expands a reduced solution to the original variable space.
    pub fn expand(&self, reduced_x: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.ncols];
        for (&orig, &v) in self.kept_cols.iter().zip(reduced_x) {
            x[orig] = v;
        }
        for &(col, v) in &self.fixed {
            x[col] = v;
        }
        x
    }
}

/// Runs the reductions; returns the reduced LP and the restore recipe.
/// With a `tape`, also records every step that reads `b` on it, so that
/// [`Tape::replay`] can redo them for another `b`.
///
/// Which rows are empty, singleton or duplicate depends only on the
/// sparsity pattern; `b` decides only the outcome of each such step
/// (drop or infeasible, the fixed value, a row's sign flip, a
/// duplicate's class). Each of those decisions goes through one of the
/// step functions below, which the replay calls too.
///
/// # Errors
///
/// [`LpError::Infeasible`] when a reduction proves the system has no
/// solution with `x ≥ 0`; [`LpError::Unbounded`] when an empty column
/// with negative cost makes the objective unbounded below.
pub(crate) fn reduce(
    lp: StdRows,
    mut tape: Option<&mut Tape>,
) -> Result<(StdRows, Restore), LpError> {
    let ncols = lp.ncols;
    let mut rows = lp.rows;
    let mut b = lp.b;
    let costs = lp.costs;
    let mut fixed: Vec<(usize, f64)> = Vec::new();
    let mut removed_col = vec![false; ncols];
    let feas_tol = feas_tol(&b);

    // -- Singleton + empty rows, iterated: substitution creates both. --
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < rows.len() {
            match rows[i].len() {
                0 => {
                    if !empty_row_feasible(b[i], feas_tol) {
                        return Err(LpError::Infeasible);
                    }
                    if let Some(t) = tape.as_deref_mut() {
                        t.steps.push(Step::DropEmpty { slot: i });
                    }
                    rows.swap_remove(i);
                    b.swap_remove(i);
                    changed = true;
                    // Re-examine the row swapped into slot i.
                }
                1 => {
                    let (col, coeff) = rows[i][0];
                    let value = fix_value(b[i], coeff).ok_or(LpError::Infeasible)?;
                    if let Some(t) = tape.as_deref_mut() {
                        t.steps.push(Step::Fix { slot: i, coeff });
                    }
                    fixed.push((col, value));
                    removed_col[col] = true;
                    rows.swap_remove(i);
                    b.swap_remove(i);
                    // Substitute into every remaining row.
                    for (k, row) in rows.iter_mut().enumerate() {
                        let a = row
                            .iter()
                            .position(|&(c, _)| c == col)
                            .map(|pos| row.swap_remove(pos).1);
                        let flip = substitute(&mut b[k], a, value);
                        if flip {
                            for e in row.iter_mut() {
                                e.1 = -e.1;
                            }
                        }
                        // A row the column does not touch keeps its
                        // `b ≥ 0`, so it flips only on input that broke
                        // the invariant; record it then too.
                        if a.is_some() || flip {
                            if let Some(t) = tape.as_deref_mut() {
                                t.steps.push(Step::Substitute { row: k, a, flip });
                            }
                        }
                    }
                    changed = true;
                }
                _ => i += 1,
            }
        }
        if !changed {
            break;
        }
    }

    // -- Duplicate rows (normalized pattern + coefficients). --
    {
        use std::collections::HashMap;
        // Normalized row → (first row with it, that row's lead).
        let mut seen: HashMap<Vec<(usize, u64)>, (usize, f64)> = HashMap::new();
        let mut keep = vec![true; rows.len()];
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_by_key(|&(c, _)| c);
            let lead = row[0].1;
            let key: Vec<(usize, u64)> =
                row.iter().map(|&(c, v)| (c, (v / lead).to_bits())).collect();
            match seen.get(&key) {
                Some(&(first, first_lead)) => {
                    match dup_class(b[i], lead, b[first], first_lead) {
                        DupClass::Drop => keep[i] = false,
                        DupClass::Infeasible => return Err(LpError::Infeasible),
                        DupClass::Keep => {}
                    }
                    if let Some(t) = tape.as_deref_mut() {
                        t.dups.push(Dup { row: i, lead, first, first_lead, keep: keep[i] });
                    }
                }
                None => {
                    seen.insert(key, (i, lead));
                }
            }
        }
        let mut ki = keep.iter();
        rows.retain(|_| *ki.next().expect("keep mask aligned"));
        let mut kb = keep.iter();
        b.retain(|_| *kb.next().expect("keep mask aligned"));
    }

    // -- Empty columns: fix at 0, or detect an unbounded ray. --
    let mut present = vec![false; ncols];
    for row in &rows {
        for &(c, _) in row {
            present[c] = true;
        }
    }
    let mut unbounded_if_feasible = false;
    for c in 0..ncols {
        if !present[c] && !removed_col[c] {
            if costs[c] < -EPS {
                // An improving ray — but only a feasible system makes the
                // LP unbounded rather than infeasible.
                unbounded_if_feasible = true;
            }
            removed_col[c] = true;
            // Value 0 is the default in Restore::expand; no entry needed.
        }
    }

    // -- Compact the kept columns. --
    let mut new_index = vec![usize::MAX; ncols];
    let mut kept_cols = Vec::new();
    for c in 0..ncols {
        if !removed_col[c] {
            new_index[c] = kept_cols.len();
            kept_cols.push(c);
        }
    }
    let mut out_rows = rows;
    for row in &mut out_rows {
        for e in row.iter_mut() {
            e.0 = new_index[e.0];
        }
    }
    let out_costs: Vec<f64> = kept_cols.iter().map(|&c| costs[c]).collect();
    let nkept = kept_cols.len();

    Ok((
        StdRows { costs: out_costs, rows: out_rows, b, ncols: nkept },
        Restore { kept_cols, fixed, ncols, unbounded_if_feasible },
    ))
}

// ---- The b-steps: every decision presolve takes on the right-hand
// side, shared by `reduce` and `Tape::replay`. ----

/// Tolerance of the empty-row test: relative to the largest `|b|` of
/// the system as it enters presolve.
fn feas_tol(b: &[f64]) -> f64 {
    let b_norm = b.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    1e-9 * (1.0 + b_norm)
}

/// An empty row `0 = b` may be dropped; otherwise the LP is infeasible.
/// (Written as a negated `>` so a NaN is dropped, as it always was.)
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn empty_row_feasible(b: f64, feas_tol: f64) -> bool {
    !(b.abs() > feas_tol)
}

/// The value a singleton row `coeff·x = b` fixes, clamped at 0; `None`
/// when it is clearly negative (the LP is infeasible).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn fix_value(b: f64, coeff: f64) -> Option<f64> {
    let value = b / coeff;
    (!(value < -1e-7)).then(|| value.max(0.0))
}

/// Substitutes a fixed `value` into one row's right-hand side (`a` is
/// the row's coefficient on the fixed column, if it has one) and keeps
/// `b ≥ 0`; returns whether the row had to be negated.
fn substitute(b: &mut f64, a: Option<f64>, value: f64) -> bool {
    if let Some(a) = a {
        *b -= a * value;
    }
    let flip = *b < 0.0;
    if flip {
        *b = -*b;
    }
    flip
}

/// What a duplicate row becomes next to the first row with the same
/// normalized left-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DupClass {
    /// Equal right-hand sides: the copy is dropped.
    Drop,
    /// Borderline: both are kept, the simplex handles it.
    Keep,
    /// Clearly different right-hand sides.
    Infeasible,
}

/// Classifies a duplicate pair by its right-hand sides, each divided by
/// its row's lead coefficient.
fn dup_class(b: f64, lead: f64, first_b: f64, first_lead: f64) -> DupClass {
    let rhs = b / lead;
    let prev_rhs = first_b / first_lead;
    let diff = (rhs - prev_rhs).abs();
    if diff <= 1e-12 * (1.0 + rhs.abs().max(prev_rhs.abs())) {
        DupClass::Drop
    } else if diff > 1e-7 * (1.0 + rhs.abs().max(prev_rhs.abs())) {
        // Same left-hand side, clearly different right-hand side. With a
        // positive lead the two equalities conflict outright; a negated
        // lead means the rhs ratio flipped sign, which is still the same
        // equation pair. Either way x would have to satisfy both, which
        // is impossible.
        DupClass::Infeasible
    } else {
        DupClass::Keep
    }
}

/// One `b`-reading step of a recorded presolve, in execution order.
#[derive(Debug, Clone)]
enum Step {
    /// The empty row in `slot` was dropped, then swap-removed.
    DropEmpty { slot: usize },
    /// The singleton row in `slot` fixed its column through `coeff`,
    /// then was swap-removed.
    Fix { slot: usize, coeff: f64 },
    /// The last fixed value was substituted into `row`.
    Substitute { row: usize, a: Option<f64>, flip: bool },
}

/// A duplicate row and the class it was given.
#[derive(Debug, Clone)]
struct Dup {
    row: usize,
    lead: f64,
    first: usize,
    first_lead: f64,
    keep: bool,
}

/// The `b`-arithmetic of one presolve run, recorded by [`reduce`] so
/// that a system differing only in `b` can be reduced again without
/// touching its rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    steps: Vec<Step>,
    dups: Vec<Dup>,
}

impl Tape {
    /// Presolves another right-hand side of the recorded system in
    /// place: given the unreduced `b`, leaves the reduced `b` in it and
    /// writes the fixed values into `fixed` (the recorded run's
    /// [`Restore::fixed`], in order). The result is exactly what
    /// [`reduce`] computes for that `b`. `false` means some step would decide
    /// differently — a drop becoming infeasible, a fixed value going
    /// negative, a row flipping sign, a duplicate changing class — and
    /// the caller must run the full presolve instead (`b` is then
    /// partly reduced).
    pub(crate) fn replay(&self, b: &mut Vec<f64>, fixed: &mut [(usize, f64)]) -> bool {
        let feas_tol = feas_tol(b);
        let mut fixes = fixed.iter_mut();
        let mut value = 0.0;
        for step in &self.steps {
            match *step {
                Step::DropEmpty { slot } => {
                    if !empty_row_feasible(b[slot], feas_tol) {
                        return false;
                    }
                    b.swap_remove(slot);
                }
                Step::Fix { slot, coeff } => {
                    let Some(v) = fix_value(b[slot], coeff) else { return false };
                    value = v;
                    fixes.next().expect("one fixed entry per recorded fix").1 = value;
                    b.swap_remove(slot);
                }
                Step::Substitute { row, a, flip } => {
                    if substitute(&mut b[row], a, value) != flip {
                        return false;
                    }
                }
            }
        }
        for d in &self.dups {
            let class = dup_class(b[d.row], d.lead, b[d.first], d.first_lead);
            if class == DupClass::Infeasible || (class == DupClass::Drop) == d.keep {
                return false;
            }
        }
        // `reduce` records the duplicates in row order.
        let mut drops = self.dups.iter().filter(|d| !d.keep).map(|d| d.row).peekable();
        let mut row = 0;
        b.retain(|_| {
            let dropped = drops.next_if_eq(&row).is_some();
            row += 1;
            !dropped
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(rows: Vec<Vec<(usize, f64)>>, b: Vec<f64>, costs: Vec<f64>) -> StdRows {
        let ncols = costs.len();
        StdRows { costs, rows, b, ncols }
    }

    fn presolve(lp: StdRows) -> Result<(StdRows, Restore), LpError> {
        reduce(lp, None)
    }

    #[test]
    fn empty_row_dropped_or_infeasible() {
        let (red, _) = presolve(lp(vec![vec![], vec![(0, 1.0)]], vec![0.0, 2.0], vec![1.0])).unwrap();
        assert!(red.rows.is_empty(), "singleton also fires: {red:?}");
        let r = presolve(lp(vec![vec![]], vec![1.0], vec![1.0]));
        assert_eq!(r.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn singleton_fixes_and_substitutes() {
        // 2·x0 = 4 fixes x0 = 2; row 1: x0 + x1 = 5 becomes x1 = 3 (also a
        // singleton, so everything presolves away).
        let (red, restore) = presolve(lp(
            vec![vec![(0, 2.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![4.0, 5.0],
            vec![0.0, 0.0],
        ))
        .unwrap();
        assert!(red.rows.is_empty());
        let x = restore.expand(&[]);
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn singleton_negative_value_infeasible() {
        let r = presolve(lp(vec![vec![(0, -1.0)], vec![(0, 1.0), (1, 1.0)]], vec![3.0, 1.0], vec![0.0, 0.0]));
        assert_eq!(r.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn substitution_renormalizes_rhs_sign() {
        // x0 = 3; then x0 + x1 = 1 becomes x1 = −2 < 0: infeasible.
        let r = presolve(lp(
            vec![vec![(0, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![3.0, 1.0],
            vec![0.0, 0.0],
        ));
        assert_eq!(r.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn duplicate_rows_deduplicated() {
        let (red, _) = presolve(lp(
            vec![
                vec![(0, 1.0), (1, 1.0)],
                vec![(0, 2.0), (1, 2.0)], // same normalized row, same rhs ratio
                vec![(0, 1.0), (1, -1.0)],
            ],
            vec![2.0, 4.0, 0.0],
            vec![1.0, 1.0],
        ))
        .unwrap();
        assert_eq!(red.rows.len(), 2);
    }

    #[test]
    fn conflicting_duplicate_rows_infeasible() {
        let r = presolve(lp(
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![2.0, 5.0],
            vec![1.0, 1.0],
        ));
        assert_eq!(r.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn empty_column_zero_or_unbounded() {
        let (red, restore) =
            presolve(lp(vec![vec![(0, 1.0)], vec![(0, 1.0), (1, 1.0)]], vec![1.0, 1.0], vec![0.0, 0.0, 3.0])).unwrap();
        assert_eq!(red.ncols, 0, "x0, x1 fixed by singleton chain; x2 empty");
        let x = restore.expand(&[]);
        assert_eq!(x[2], 0.0);
        let (_, restore) = presolve(lp(vec![vec![(0, 1.0)]], vec![1.0], vec![0.0, -1.0])).unwrap();
        assert!(restore.unbounded_if_feasible, "negative-cost empty column defers to feasibility");
    }

    /// Replaying a recorded presolve on another `b` gives exactly what
    /// presolving that `b` gives, fixed values included, and declines
    /// (`None`) exactly when a `b`-decision would change.
    #[test]
    fn tape_replay_matches_reduce() {
        // x0 = b0/2 (singleton), substituted into rows 1 and 2, which
        // then fix x1 and leave x2 + x3 = …; rows 3 and 4 are a
        // duplicate pair; row 5 is empty.
        let rows = vec![
            vec![(0, 2.0)],
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, -1.0), (2, 1.0), (3, 1.0)],
            vec![(2, 1.0), (3, 2.0)],
            vec![(2, 3.0), (3, 6.0)],
            vec![],
        ];
        let base = vec![2.0, 3.0, 1.0, 4.0, 12.0, 0.0];
        let mut tape = Tape::default();
        let (red, restore) =
            reduce(lp(rows.clone(), base.clone(), vec![1.0; 4]), Some(&mut tape)).unwrap();
        let replay = |b: &[f64], fixed: &mut [(usize, f64)]| {
            let mut b = b.to_vec();
            tape.replay(&mut b, fixed).then_some(b)
        };
        let mut fixed = restore.fixed.clone();
        assert_eq!(replay(&base, &mut fixed), Some(red.b.clone()));
        assert_eq!(fixed, restore.fixed);
        for b in [
            vec![4.0, 3.5, 1.0, 4.5, 13.5, 0.0],
            vec![0.0, 3.0, 0.5, 1.0, 3.0, 1e-12],
            vec![2.0, 3.0, 1.0, 4.0, 12.000000001, 0.0],
            vec![2.0, 3.0, 1.0, 4.0, 13.0, 0.0],
            vec![2.0, 3.0, 1.0, 4.0, 12.0, 0.5],
            vec![8.0, 3.0, 1.0, 4.0, 12.0, 0.0],
            vec![2.0, 3.0, 0.5, 4.0, 12.0, 0.0],
        ] {
            let mut fixed = restore.fixed.clone();
            let replayed = replay(&b, &mut fixed);
            match presolve(lp(rows.clone(), b.clone(), vec![1.0; 4])) {
                Ok((red2, restore2)) if red2.rows == red.rows => {
                    assert_eq!(replayed, Some(red2.b), "{b:?}");
                    assert_eq!(fixed, restore2.fixed, "{b:?}");
                }
                _ => assert_eq!(replayed, None, "{b:?}: a changed decision must decline"),
            }
        }
    }

    #[test]
    fn expand_maps_kept_columns() {
        let (red, restore) = presolve(lp(
            vec![vec![(0, 1.0), (2, 1.0)]],
            vec![2.0],
            vec![1.0, 0.0, 1.0],
        ))
        .unwrap();
        // Column 1 is empty (cost ≥ 0, fixed at 0); columns 0 and 2 kept.
        assert_eq!(red.ncols, 2);
        let x = restore.expand(&[1.5, 0.5]);
        assert_eq!(x, vec![1.5, 0.0, 0.5]);
    }
}
