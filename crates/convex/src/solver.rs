//! Log-barrier path-following with equality-constrained Newton centering.
//!
//! [`barrier`] minimizes `t·c·x − Σ ln(1 − g_i(x))` for growing `t`. Its two
//! inner loops are the derivative evaluation, once per Newton step, and the
//! line search, about a dozen candidates per step. Both run against a
//! `Workspace` that each barrier run builds once:
//!
//! * **Cached constraint data.** Every term's `ln(weight)`, and its
//!   *support*: the coordinates where its `lin` or one of its factor rows
//!   is nonzero.
//! * **Reused buffers.** The gradient, the Hessian, `∇g`, the per-term
//!   log-gradients and the candidate point. Rank-one Hessian pieces are
//!   recorded as indices into them, not as copied vectors.
//!
//! A line-search candidate costs one pass that evaluates each constraint
//! once and stops at the first one that is not strictly feasible. A
//! rank-one piece `w·v·vᵀ` updates only the rows and columns in its term's
//! support (or the nonzeros of `∇g`). Without equality constraints the
//! nullspace basis is `None` rather than `Z = I`, and the Newton system is
//! solved in `x` itself, with no products with the identity.
//!
//! None of this moves an iterate by one bit. Every `vecops` call keeps its
//! operands and order, a skipped Hessian entry would only have received
//! `±0`, and the tests compare all of it against the dense formulas with
//! `to_bits`, under the same stop rules.
//!
//! A centering ends at `max_newton` steps, when `λ²/2 < NEWTON_TOL`, when
//! the line search stalls, or when the decrease the Armijo test certified,
//! `ARMIJO·step·λ²`, falls below `f64::EPSILON·|B(x)|`. Past that point
//! the barrier value `B(x)` (up to ~1e11 at large `t`) cannot resolve the
//! decrease, so the test accepts steps on rounding noise and more steps
//! certify nothing. The last accepted step is kept. This exit is sound:
//! every iterate is strictly feasible, and any strictly feasible point
//! certifies a bound, so stopping early can leave the bound above the
//! optimum but never makes it unsound.

use crate::{ConvexError, ConvexProblem, ConvexSolution, ExpSumConstraint, SolverOptions};
use qava_linalg::{vecops, Matrix};

/// Maximum outer (barrier-parameter) iterations.
const MAX_OUTER: usize = 120;
/// Newton decrement threshold (λ²/2) for declaring a centering step done.
const NEWTON_TOL: f64 = 1e-10;
/// Armijo sufficient-decrease coefficient for the backtracking line search.
const ARMIJO: f64 = 0.01;

pub(crate) fn solve(p: &ConvexProblem, opts: &SolverOptions) -> Result<ConvexSolution, ConvexError> {
    let (scaled, col_scale) = rescale_columns(&presolve(p)?);
    let mut sol = solve_scaled(&scaled, opts)?;
    for (xj, s) in sol.x.iter_mut().zip(&col_scale) {
        *xj *= s;
    }
    Ok(sol)
}

/// Substitutes `x_j = s_j·x'_j` with `s_j = 1/max|coef_j|`, so every affine
/// row of the scaled problem has coefficients of order 1. Quantifier
/// elimination instantiates templates at invariant vertices with
/// coordinates in the hundreds or thousands; without this, the barrier
/// Hessian mixes curvatures across ~6 orders of magnitude and Newton
/// centering stalls far from the central path.
fn rescale_columns(p: &ConvexProblem) -> (ConvexProblem, Vec<f64>) {
    let n = p.num_vars();
    let mut maxcoef = vec![0.0f64; n];
    let mut track = |lin: &[f64]| {
        for (m, &c) in maxcoef.iter_mut().zip(lin) {
            *m = m.max(c.abs());
        }
    };
    for c in p.constraints_ref() {
        for t in &c.terms {
            track(&t.lin);
            for f in &t.uniform_factors {
                track(&f.lin);
            }
        }
    }
    for (row, _) in p.equalities_ref() {
        track(row);
    }
    let col_scale: Vec<f64> = maxcoef
        .iter()
        .map(|&m| if m > 4.0 || (m > 0.0 && m < 0.25) { 1.0 / m } else { 1.0 })
        .collect();
    if col_scale.iter().all(|&s| s == 1.0) {
        return (p.clone(), col_scale);
    }

    let mut out = ConvexProblem::new(n);
    let scale_row = |lin: &[f64]| -> Vec<f64> {
        lin.iter().zip(&col_scale).map(|(c, s)| c * s).collect()
    };
    out.set_objective(scale_row(p.objective_ref()));
    for (row, rhs) in p.equalities_ref() {
        out.add_equality(scale_row(row), *rhs);
    }
    for c in p.constraints_ref() {
        let terms = c
            .terms
            .iter()
            .map(|t| {
                let mut t2 = t.clone();
                t2.lin = scale_row(&t.lin);
                for f in &mut t2.uniform_factors {
                    f.lin = scale_row(&f.lin);
                }
                t2
            })
            .collect();
        out.add_constraint(ExpSumConstraint { terms, label: c.label.clone() });
    }
    (out, col_scale)
}

fn solve_scaled(p: &ConvexProblem, opts: &SolverOptions) -> Result<ConvexSolution, ConvexError> {
    let n = p.num_vars();

    // Point satisfying the equality constraints (least squares; exact when
    // the system is consistent — inconsistency shows up as infeasibility).
    let x_eq = if p.equalities_ref().is_empty() {
        vec![0.0; n]
    } else {
        let mut e = Matrix::zeros(0, 0);
        let mut f = Vec::new();
        for (row, rhs) in p.equalities_ref() {
            e.push_row(row);
            f.push(*rhs);
        }
        let mut x = e.least_squares(&f);
        // One step of iterative refinement counteracts the ridge bias.
        let r: Vec<f64> =
            f.iter().zip(e.mul_vec(&x)).map(|(fi, exi)| fi - exi).collect();
        vecops::axpy(1.0, &e.least_squares(&r), &mut x);
        let resid: f64 = e
            .mul_vec(&x)
            .iter()
            .zip(&f)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if resid > 1e-6 {
            return Err(ConvexError::Infeasible);
        }
        x
    };

    // ---- Phase I: find a strictly feasible point. ----
    let x0 = if p.constraints_ref().is_empty() {
        x_eq.clone()
    } else {
        phase_one(p, &x_eq, opts)?
    };

    // ---- Phase II: follow the central path for the real objective. ----
    let eq: Vec<(Vec<f64>, f64)> = p.equalities_ref().to_vec();
    let run = barrier(p.objective_ref(), p.constraints_ref(), &eq, x0, opts)?;
    let objective = vecops::dot(p.objective_ref(), &run.x);
    Ok(ConvexSolution {
        x: run.x,
        objective,
        floored: run.floored,
        newton_iterations: run.newton_iterations,
    })
}

/// Implicit-equality detection (standard presolve): two opposite linear
/// rows `c·x ≤ d` and `−c·x ≤ −d` have an empty strict interior, which
/// would make the barrier's phase I report a perfectly feasible problem as
/// infeasible. The pair is rewritten as the equality `c·x = d`, which the
/// barrier handles exactly through its nullspace reduction. Quantifier
/// elimination produces such pairs routinely — e.g. the (D1) rows of two
/// transitions that chain two locations in both directions pin the
/// templates to be equal.
///
/// # Errors
///
/// [`ConvexError::Infeasible`] when an opposite pair is contradictory
/// (`c·x ≤ d` and `c·x ≥ d'` with `d' > d`).
fn presolve(p: &ConvexProblem) -> Result<ConvexProblem, ConvexError> {
    // A linear row is a single exp-affine term without MGF factors:
    // w·exp(c·x + k) ≤ 1  ⇔  c·x ≤ −k − ln w.
    let as_linear = |c: &ExpSumConstraint| -> Option<(Vec<f64>, f64)> {
        if c.terms.len() != 1 || !c.terms[0].uniform_factors.is_empty() {
            return None;
        }
        let t = &c.terms[0];
        Some((t.lin.clone(), -t.constant - t.weight.ln()))
    };

    let mut out = ConvexProblem::new(p.num_vars());
    out.set_objective(p.objective_ref().to_vec());
    for (row, rhs) in p.equalities_ref() {
        out.add_equality(row.clone(), *rhs);
    }

    // Normalize every linear row to max-norm 1 with a sign-canonical
    // direction (first nonzero component positive). The row then reads
    // `dir·x ≤ rhs` (upper) or `dir·x ≥ rhs` (lower, when the original
    // direction was flipped).
    struct NormRow {
        index: usize,
        dir: Vec<f64>,
        rhs: f64,
        upper: bool,
    }
    let mut rows: Vec<NormRow> = Vec::new();
    let mut keep = vec![true; p.constraints_ref().len()];
    for (i, c) in p.constraints_ref().iter().enumerate() {
        let Some((lin, d)) = as_linear(c) else { continue };
        let s = lin.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if s == 0.0 {
            // 0·x ≤ d: vacuous or plainly infeasible.
            if d < -1e-12 {
                return Err(ConvexError::Infeasible);
            }
            keep[i] = false;
            continue;
        }
        let mut dir: Vec<f64> = lin.iter().map(|v| v / s).collect();
        let mut rhs = d / s;
        let mut upper = true;
        if let Some(first) = dir.iter().find(|v| v.abs() > 0.0) {
            if *first < 0.0 {
                for v in &mut dir {
                    *v = -*v;
                }
                rhs = -rhs;
                upper = false;
            }
        }
        rows.push(NormRow { index: i, dir, rhs, upper });
    }

    // Group rows by direction; each group is an interval constraint
    // `lo ≤ dir·x ≤ hi` represented by at most two surviving rows — or an
    // equality when the interval collapses.
    let mut grouped = vec![false; rows.len()];
    for i in 0..rows.len() {
        if grouped[i] {
            continue;
        }
        let mut members = vec![i];
        for j in i + 1..rows.len() {
            if grouped[j] {
                continue;
            }
            let parallel = rows[i]
                .dir
                .iter()
                .zip(&rows[j].dir)
                .all(|(a, b)| (a - b).abs() <= 1e-12);
            if parallel {
                members.push(j);
            }
        }
        let mut hi = f64::INFINITY;
        let mut lo = f64::NEG_INFINITY;
        let mut hi_row: Option<usize> = None;
        let mut lo_row: Option<usize> = None;
        for &m in &members {
            grouped[m] = true;
            if rows[m].upper {
                if rows[m].rhs < hi {
                    hi = rows[m].rhs;
                    hi_row = Some(rows[m].index);
                }
            } else if rows[m].rhs > lo {
                lo = rows[m].rhs;
                lo_row = Some(rows[m].index);
            }
        }
        if lo > hi + 1e-9 {
            return Err(ConvexError::Infeasible);
        }
        for &m in &members {
            keep[rows[m].index] = false;
        }
        if lo >= hi - 1e-12 {
            out.add_equality(rows[i].dir.clone(), hi);
        } else {
            if let Some(r) = hi_row {
                keep[r] = true;
            }
            if let Some(r) = lo_row {
                keep[r] = true;
            }
        }
    }

    for (i, c) in p.constraints_ref().iter().enumerate() {
        if keep[i] {
            out.add_constraint(c.clone());
        }
    }
    Ok(out)
}

/// Finds a strictly feasible point by minimizing the shift `s` in
/// `g_i(x)·e^{-s} ≤ 1`, starting from an `s` large enough to be interior.
fn phase_one(p: &ConvexProblem, x_eq: &[f64], opts: &SolverOptions) -> Result<Vec<f64>, ConvexError> {
    let n = p.num_vars();
    let mut shifted: Vec<ExpSumConstraint> = Vec::with_capacity(p.num_constraints() + 1);
    let mut worst_log = f64::NEG_INFINITY;
    for c in p.constraints_ref() {
        let mut terms = Vec::with_capacity(c.terms.len());
        for t in &c.terms {
            let mut t2 = t.clone();
            t2.lin.push(-1.0);
            for f in &mut t2.uniform_factors {
                f.lin.push(0.0);
            }
            terms.push(t2);
        }
        // Track how infeasible the equality-feasible start is.
        let v = c.eval(x_eq);
        let lg = if v.is_finite() && v > 0.0 {
            v.ln()
        } else if v == 0.0 {
            f64::NEG_INFINITY
        } else {
            // Overflowed: recompute a safe upper estimate from term logs.
            c.terms.iter().map(|t| t.log_value(x_eq)).fold(f64::NEG_INFINITY, f64::max)
                + (c.terms.len() as f64).ln()
        };
        worst_log = worst_log.max(lg);
        shifted.push(ExpSumConstraint { terms, label: c.label.clone() });
    }
    // Keep phase I bounded: s ≥ −1 (written as −s ≤ 1).
    let mut cap_row = vec![0.0; n + 1];
    cap_row[n] = -1.0;
    shifted.push(ExpSumConstraint::linear(cap_row, 1.0));

    let mut z0 = x_eq.to_vec();
    z0.push(worst_log.max(0.0) + 1.0);

    let mut obj = vec![0.0; n + 1];
    obj[n] = 1.0;

    let eq: Vec<(Vec<f64>, f64)> = p
        .equalities_ref()
        .iter()
        .map(|(row, rhs)| {
            let mut r = row.clone();
            r.push(0.0);
            (r, *rhs)
        })
        .collect();

    let mut p1_opts = opts.clone();
    p1_opts.obj_floor = -0.9; // any strictly negative s suffices
    p1_opts.tol = 1e-6;
    let run = barrier(&obj, &shifted, &eq, z0, &p1_opts)?;
    let s = run.x[n];
    if s < -1e-6 {
        Ok(run.x[..n].to_vec())
    } else {
        Err(ConvexError::Infeasible)
    }
}

struct BarrierRun {
    x: Vec<f64>,
    floored: bool,
    newton_iterations: usize,
}

/// One full central path: minimize `t·c·x − Σ ln(1 − g_i(x))` for growing `t`.
fn barrier(
    objective: &[f64],
    constraints: &[ExpSumConstraint],
    equalities: &[(Vec<f64>, f64)],
    mut x: Vec<f64>,
    opts: &SolverOptions,
) -> Result<BarrierRun, ConvexError> {
    let n = x.len();
    let m = constraints.len().max(1);
    let mut t = 1.0;
    let mut newton_total = 0usize;
    let mut floored = false;
    let mut ws = Workspace::new(objective, constraints, n);

    debug_assert!(ws.value_if_interior(t, &x).is_some(), "barrier started outside the interior");

    // Reduced-space handling of equalities: steps live in null(E), i.e.
    // dx = Z·du, which keeps E·x = f satisfied exactly — no KKT drift.
    let z = nullspace_basis(equalities, n);
    if z.as_ref().map_or(n, Matrix::cols) == 0 {
        // Equalities pin x completely; the start point is the only candidate.
        return Ok(BarrierRun { x, floored: false, newton_iterations: 0 });
    }
    let mut cand = vec![0.0; n];

    for _outer in 0..MAX_OUTER {
        // ---- Newton centering for the current t. ----
        for _ in 0..opts.max_newton {
            newton_total += 1;
            let val = ws.derivatives(t, &x);
            let dx = reduced_newton_step(z.as_ref(), &ws.hess, &ws.grad)?;
            let decrement = -vecops::dot(&ws.grad, &dx);
            if decrement / 2.0 < NEWTON_TOL {
                break;
            }
            // Backtracking line search: stay strictly feasible, decrease B.
            let mut step = 1.0;
            let mut moved = false;
            while step > 1e-13 {
                cand.copy_from_slice(&x);
                vecops::axpy(step, &dx, &mut cand);
                if let Some(cand_val) = ws.value_if_interior(t, &cand) {
                    if cand_val <= val - ARMIJO * step * decrement {
                        std::mem::swap(&mut x, &mut cand);
                        moved = true;
                        break;
                    }
                }
                step *= 0.5;
            }
            if !moved {
                break; // stalled: accept current center
            }
            if vecops::dot(objective, &x) < opts.obj_floor {
                floored = true;
                break;
            }
            if below_rounding(step, decrement, val) {
                break; // f64 can no longer certify progress: keep the step
            }
        }

        if floored || vecops::dot(objective, &x) < opts.obj_floor {
            return Ok(BarrierRun { x, floored: true, newton_iterations: newton_total });
        }
        if m as f64 / t < opts.tol {
            return Ok(BarrierRun { x, floored: false, newton_iterations: newton_total });
        }
        t *= opts.mu;
    }
    Ok(BarrierRun { x, floored, newton_iterations: newton_total })
}

/// Whether the decrease `ARMIJO·step·λ²` that the line search just
/// certified is below the rounding unit of the barrier value `val` at the
/// point it started from (see the module docs).
fn below_rounding(step: f64, decrement: f64, val: f64) -> bool {
    ARMIJO * step * decrement < f64::EPSILON * val.abs()
}

/// Per-run data of one constraint, indexed like its terms.
struct ConstraintCache {
    /// `ln(weight)` of each term.
    ln_weights: Vec<f64>,
    /// Each term's support: the coordinates where its `lin` or one of its
    /// factor rows is nonzero. The term's log-gradient and factor rows are
    /// `±0` everywhere else, so its Hessian pieces touch no other entry.
    supports: Vec<Vec<usize>>,
}

/// Which vector a recorded rank-one Hessian piece `w·v·vᵀ` uses.
#[derive(Clone, Copy)]
enum Piece {
    /// Term `k`'s log-gradient, held in the per-term gradient buffer.
    Gradient(usize),
    /// Factor `j`'s row of term `k`: `(k, j)`.
    Factor(usize, usize),
}

/// The constraint data and buffers one barrier run reuses on every
/// evaluation.
struct Workspace<'a> {
    objective: &'a [f64],
    constraints: &'a [ExpSumConstraint],
    cache: Vec<ConstraintCache>,
    /// Gradient of the barrier at the last [`Workspace::derivatives`] point.
    grad: Vec<f64>,
    /// Hessian of the barrier at the last [`Workspace::derivatives`] point.
    hess: Matrix,
    /// `∇g` of the constraint being accumulated, and its nonzero entries.
    dg: Vec<f64>,
    dg_support: Vec<usize>,
    /// Log-gradient of term `k` of the current constraint at rows
    /// `k·n..(k+1)·n`.
    term_grads: Vec<f64>,
    /// Factor arguments `t_j(x)` of the current term.
    factor_args: Vec<f64>,
    /// Rank-one Hessian pieces of the current constraint, unscaled by its
    /// slack.
    pieces: Vec<(f64, Piece)>,
}

impl<'a> Workspace<'a> {
    fn new(objective: &'a [f64], constraints: &'a [ExpSumConstraint], n: usize) -> Self {
        let cache = constraints
            .iter()
            .map(|c| ConstraintCache {
                ln_weights: c.terms.iter().map(|t| t.weight.ln()).collect(),
                supports: c
                    .terms
                    .iter()
                    .map(|t| {
                        (0..n)
                            .filter(|&j| {
                                t.lin[j] != 0.0 || t.uniform_factors.iter().any(|f| f.lin[j] != 0.0)
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let max_terms = constraints.iter().map(|c| c.terms.len()).max().unwrap_or(0);
        Workspace {
            objective,
            constraints,
            cache,
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            dg: vec![0.0; n],
            dg_support: Vec::with_capacity(n),
            term_grads: vec![0.0; max_terms * n],
            factor_args: Vec::new(),
            pieces: Vec::new(),
        }
    }

    /// The barrier value `t·c·x − Σ ln(1 − g_i(x))` when every constraint
    /// is strictly feasible (`g_i(x) < 1 − 1e-12`), else `None`. One pass
    /// evaluates each constraint once and stops at the first violated one.
    fn value_if_interior(&self, t: f64, x: &[f64]) -> Option<f64> {
        let mut v = t * vecops::dot(self.objective, x);
        for (c, cache) in self.constraints.iter().zip(&self.cache) {
            let g = c.eval_with(&cache.ln_weights, x);
            if g < 1.0 - 1e-12 {
                v -= (1.0 - g).ln();
            } else {
                return None;
            }
        }
        Some(v)
    }

    /// Fills `grad` and `hess` with the barrier's gradient and Hessian at
    /// `x` and returns its value. Terms with `ln(term) < −300` count as
    /// zero here.
    fn derivatives(&mut self, t: f64, x: &[f64]) -> f64 {
        let n = x.len();
        let Workspace {
            objective,
            constraints,
            cache,
            grad,
            hess,
            dg,
            dg_support,
            term_grads,
            factor_args,
            pieces,
        } = self;
        grad.copy_from_slice(objective);
        vecops::scale_in_place(t, grad);
        for i in 0..n {
            hess.row_mut(i).fill(0.0);
        }
        let mut value = t * vecops::dot(objective, x);

        for (c, cache) in constraints.iter().zip(cache.iter()) {
            let mut g = 0.0;
            dg.fill(0.0);
            // Hessian of g accumulated directly into `hess` after scaling, so
            // gather rank-one pieces first.
            pieces.clear();
            for (k, (term, &ln_weight)) in c.terms.iter().zip(&cache.ln_weights).enumerate() {
                let mut rho = ln_weight + vecops::dot(&term.lin, x) + term.constant;
                factor_args.clear();
                for f in &term.uniform_factors {
                    let arg = vecops::dot(&f.lin, x) + f.constant;
                    rho += f.mgf.log_value(arg);
                    factor_args.push(arg);
                }
                if rho < -300.0 {
                    continue; // numerically zero term
                }
                let tv = rho.exp();
                let lg = &mut term_grads[k * n..(k + 1) * n];
                lg.copy_from_slice(&term.lin);
                for (f, &arg) in term.uniform_factors.iter().zip(factor_args.iter()) {
                    vecops::axpy(f.mgf.dlog(arg), &f.lin, lg);
                }
                g += tv;
                vecops::axpy(tv, lg, dg);
                pieces.push((tv, Piece::Gradient(k)));
                for (j, (&arg, f)) in factor_args.iter().zip(&term.uniform_factors).enumerate() {
                    let curv = f.mgf.d2log(arg);
                    if curv > 0.0 {
                        pieces.push((tv * curv, Piece::Factor(k, j)));
                    }
                }
            }
            let slack = 1.0 - g;
            debug_assert!(slack > 0.0, "derivative evaluation outside interior");
            value -= slack.ln();
            // ∇(−ln(1−g)) = ∇g / (1−g)
            vecops::axpy(1.0 / slack, dg, grad);
            // ∇² = ∇g∇gᵀ/(1−g)² + ∇²g/(1−g)
            dg_support.clear();
            dg_support.extend((0..n).filter(|&j| dg[j] != 0.0));
            rank_one_update(hess, 1.0 / (slack * slack), dg, dg_support);
            for &(w, piece) in pieces.iter() {
                let (v, k) = match piece {
                    Piece::Gradient(k) => (&term_grads[k * n..(k + 1) * n], k),
                    Piece::Factor(k, j) => (&c.terms[k].uniform_factors[j].lin[..], k),
                };
                rank_one_update(hess, w / slack, v, &cache.supports[k]);
            }
        }
        value
    }
}

/// `h += w · v·vᵀ` over the rows and columns in `support`, which must hold
/// every index where `v` is nonzero. A skipped entry would only have
/// received `w·v_i·(±0) = ±0`, and `h` never holds `−0` (it starts at `+0`
/// and only accumulates sums), so the result is bit-identical to the dense
/// update.
fn rank_one_update(h: &mut Matrix, w: f64, v: &[f64], support: &[usize]) {
    if w == 0.0 {
        return;
    }
    for &i in support {
        if v[i] == 0.0 {
            continue;
        }
        let wi = w * v[i];
        let row = h.row_mut(i);
        for &j in support {
            row[j] += wi * v[j];
        }
    }
}

/// Columns spanning `null(E)` as a matrix `Z`, or `None` when there are no
/// equality rows: then `Z = I` and the Newton step is taken in `x` itself.
fn nullspace_basis(equalities: &[(Vec<f64>, f64)], n: usize) -> Option<Matrix> {
    if equalities.is_empty() {
        return None;
    }
    let mut e = Matrix::zeros(0, 0);
    for (row, _) in equalities {
        e.push_row(row);
    }
    let basis = e.nullspace();
    let mut z = Matrix::zeros(n, basis.len());
    for (k, v) in basis.iter().enumerate() {
        for i in 0..n {
            z[(i, k)] = v[i];
        }
    }
    Some(z)
}

/// Newton step in the reduced space: solve `(ZᵀHZ + ridge)·du = −Zᵀgrad`
/// and return `dx = Z·du`, escalating regularization until the step is a
/// descent direction. `z = None` stands for `Z = I`: `H` and `grad` are
/// used as they are. Products with `I` are exact up to the sign of a zero,
/// and `dx = du + 0.0` turns `−0` into `+0` just as `I·du` does, so both
/// forms return the same bits.
fn reduced_newton_step(
    z: Option<&Matrix>,
    hess: &Matrix,
    grad: &[f64],
) -> Result<Vec<f64>, ConvexError> {
    let reduced = z.map(|z| (z.mul_vec_transposed(grad), z.transpose().mul(&hess.mul(z))));
    let (grad_u, hu) = match &reduced {
        Some((grad_u, hu)) => (grad_u.as_slice(), hu),
        None => (grad, hess),
    };
    let k = hu.cols();
    for attempt in 0..8 {
        let ridge = 1e-9 * 10f64.powi(attempt * 2);
        let mut m = hu.clone();
        let scale = (0..k).map(|i| m[(i, i)].abs()).fold(1.0, f64::max);
        for i in 0..k {
            m[(i, i)] += ridge * scale;
        }
        if let Some(du) = m.solve(&vecops::scale(-1.0, grad_u)) {
            let dx = match z {
                Some(z) => z.mul_vec(&du),
                None => du.into_iter().map(|v| v + 0.0).collect(),
            };
            // The step must be a descent direction; otherwise re-regularize.
            if vecops::dot(grad, &dx) <= 0.0 {
                return Ok(dx);
            }
        }
    }
    Err(ConvexError::NumericalFailure("reduced Newton system unsolvable".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpTerm, UniformMgf};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    // ---- Oracle: the dense formulas the workspace replaced, verbatim. ----

    fn strictly_feasible(constraints: &[ExpSumConstraint], x: &[f64]) -> bool {
        constraints.iter().all(|c| c.eval(x) < 1.0 - 1e-12)
    }

    fn barrier_value(
        t: f64,
        objective: &[f64],
        constraints: &[ExpSumConstraint],
        x: &[f64],
    ) -> f64 {
        let mut v = t * vecops::dot(objective, x);
        for c in constraints {
            v -= (1.0 - c.eval(x)).ln();
        }
        v
    }

    fn log_gradient(term: &ExpTerm, x: &[f64]) -> Vec<f64> {
        let mut g = term.lin.clone();
        for f in &term.uniform_factors {
            let t = vecops::dot(&f.lin, x) + f.constant;
            vecops::axpy(f.mgf.dlog(t), &f.lin, &mut g);
        }
        g
    }

    fn log_curvatures<'a>(term: &'a ExpTerm, x: &[f64]) -> Vec<(f64, &'a [f64])> {
        term.uniform_factors
            .iter()
            .map(|f| {
                let t = vecops::dot(&f.lin, x) + f.constant;
                (f.mgf.d2log(t), f.lin.as_slice())
            })
            .collect()
    }

    fn dense_rank_one_update(h: &mut Matrix, w: f64, v: &[f64]) {
        if w == 0.0 {
            return;
        }
        let n = v.len();
        for i in 0..n {
            if v[i] == 0.0 {
                continue;
            }
            let wi = w * v[i];
            for j in 0..n {
                h[(i, j)] += wi * v[j];
            }
        }
    }

    fn dense_derivatives(
        t: f64,
        objective: &[f64],
        constraints: &[ExpSumConstraint],
        x: &[f64],
    ) -> (f64, Vec<f64>, Matrix) {
        let n = x.len();
        let mut grad = vecops::scale(t, objective);
        let mut hess = Matrix::zeros(n, n);
        let mut value = t * vecops::dot(objective, x);
        for c in constraints {
            let mut g = 0.0;
            let mut dg = vec![0.0; n];
            let mut pieces: Vec<(f64, Vec<f64>)> = Vec::new();
            for term in &c.terms {
                let rho = term.log_value(x);
                if rho < -300.0 {
                    continue;
                }
                let tv = rho.exp();
                let lg = log_gradient(term, x);
                g += tv;
                vecops::axpy(tv, &lg, &mut dg);
                pieces.push((tv, lg.clone()));
                for (curv, dir) in log_curvatures(term, x) {
                    if curv > 0.0 {
                        pieces.push((tv * curv, dir.to_vec()));
                    }
                }
            }
            let slack = 1.0 - g;
            value -= slack.ln();
            vecops::axpy(1.0 / slack, &dg, &mut grad);
            dense_rank_one_update(&mut hess, 1.0 / (slack * slack), &dg);
            for (w, dir) in &pieces {
                dense_rank_one_update(&mut hess, w / slack, dir);
            }
        }
        (value, grad, hess)
    }

    /// The central path as it ran before the workspace: two constraint
    /// passes per candidate, dense derivatives, and `Z = I` without
    /// equalities.
    fn dense_barrier(
        objective: &[f64],
        constraints: &[ExpSumConstraint],
        equalities: &[(Vec<f64>, f64)],
        mut x: Vec<f64>,
        opts: &SolverOptions,
    ) -> Result<BarrierRun, ConvexError> {
        let n = x.len();
        let m = constraints.len().max(1);
        let mut t = 1.0;
        let mut newton_total = 0usize;
        let mut floored = false;
        let z = nullspace_basis(equalities, n).unwrap_or_else(|| Matrix::identity(n));
        if z.cols() == 0 {
            return Ok(BarrierRun { x, floored: false, newton_iterations: 0 });
        }
        for _outer in 0..MAX_OUTER {
            for _ in 0..opts.max_newton {
                newton_total += 1;
                let (val, grad, hess) = dense_derivatives(t, objective, constraints, &x);
                let dx = reduced_newton_step(Some(&z), &hess, &grad)?;
                let decrement = -vecops::dot(&grad, &dx);
                if decrement / 2.0 < NEWTON_TOL {
                    break;
                }
                let mut step = 1.0;
                let mut moved = false;
                while step > 1e-13 {
                    let mut cand = x.clone();
                    vecops::axpy(step, &dx, &mut cand);
                    if strictly_feasible(constraints, &cand) {
                        let cand_val = barrier_value(t, objective, constraints, &cand);
                        if cand_val <= val - ARMIJO * step * decrement {
                            x = cand;
                            moved = true;
                            break;
                        }
                    }
                    step *= 0.5;
                }
                if !moved {
                    break;
                }
                if vecops::dot(objective, &x) < opts.obj_floor {
                    floored = true;
                    break;
                }
                if below_rounding(step, decrement, val) {
                    break;
                }
            }
            if floored || vecops::dot(objective, &x) < opts.obj_floor {
                return Ok(BarrierRun { x, floored: true, newton_iterations: newton_total });
            }
            if m as f64 / t < opts.tol {
                return Ok(BarrierRun { x, floored: false, newton_iterations: newton_total });
            }
            t *= opts.mu;
        }
        Ok(BarrierRun { x, floored, newton_iterations: newton_total })
    }

    /// A random problem that is strictly feasible at the origin (every
    /// constraint sums to at most 1/2 there), with exact zeros (of both
    /// signs) among the coefficients, uniform-MGF factors, terms far below
    /// the `−300` cutoff, and optionally equalities through the origin.
    fn random_barrier_problem(n: usize, with_equalities: bool, seed: u64) -> ConvexProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = |rng: &mut StdRng| -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect()
        };
        let mut p = ConvexProblem::new(n);
        p.set_objective(row(&mut rng));
        for _ in 0..rng.gen_range(1..6) {
            let nterms = rng.gen_range(1..4);
            let mut terms = Vec::new();
            for _ in 0..nterms {
                let lin = row(&mut rng);
                let constant = if rng.gen_range(0..6) == 0 { -400.0 } else { 0.0 };
                let weight = rng.gen_range(0.1..1.0) / (2 * nterms) as f64;
                let mut term = ExpTerm::exp_affine(weight, lin, constant);
                for _ in 0..rng.gen_range(0..3) {
                    let a = rng.gen_range(-1.0..0.5);
                    let lin = row(&mut rng);
                    let shift = rng.gen_range(-0.5..0.5);
                    // ln φ(s) ≤ |s|·max|r| ≤ |s|·(|a| + 1) for r ∈ [a, a + 1]:
                    // offsetting the exponent keeps the term ≤ w at the origin.
                    term.constant -= (a.abs() + 1.0) * shift.abs();
                    term = term.with_uniform_factor(UniformMgf::new(a, a + 1.0), lin, shift);
                }
                terms.push(term);
            }
            p.add_constraint(ExpSumConstraint::new(terms));
        }
        // Box rows keep most coordinates bounded. A coordinate left out may
        // be touched by no row at all, which gives the Newton system a
        // decoupled row and the step a signed zero.
        for j in (0..n).filter(|_| rng.gen_range(0..4) > 0) {
            let mut up = vec![0.0; n];
            up[j] = 1.0;
            p.add_constraint(ExpSumConstraint::linear(up, 3.0));
            let mut down = vec![0.0; n];
            down[j] = -1.0;
            p.add_constraint(ExpSumConstraint::linear(down, 3.0));
        }
        if with_equalities && n > 1 {
            for _ in 0..rng.gen_range(1..n) {
                p.add_equality(row(&mut rng), 0.0);
            }
        }
        p
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The workspace's fused line search, sparse derivatives and
        /// `Z = None` step reproduce the dense formulas bit for bit, at
        /// widths on both sides of the vecops dispatch threshold.
        #[test]
        fn workspace_matches_dense_formulas_bit_for_bit(
            n in 1usize..13,
            with_equalities in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let p = random_barrier_problem(n, with_equalities, seed);
            let (objective, constraints, equalities) =
                (p.objective_ref(), p.constraints_ref(), p.equalities_ref());
            let mut ws = Workspace::new(objective, constraints, n);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut interior_points = 0;
            for _ in 0..12 {
                let radius = rng.gen_range(0.0..1.5);
                let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-radius..radius)).collect();
                let t = rng.gen_range(0.5..1e4);

                let fused = ws.value_if_interior(t, &x);
                let feasible = strictly_feasible(constraints, &x);
                prop_assert_eq!(fused.is_some(), feasible);
                if !feasible {
                    continue;
                }
                interior_points += 1;
                let value = barrier_value(t, objective, constraints, &x);
                prop_assert_eq!(fused.unwrap().to_bits(), value.to_bits());

                let (dval, dgrad, dhess) = dense_derivatives(t, objective, constraints, &x);
                let val = ws.derivatives(t, &x);
                prop_assert_eq!(val.to_bits(), dval.to_bits());
                prop_assert!(same_bits(&ws.grad, &dgrad), "gradient differs at {x:?}");
                for i in 0..n {
                    prop_assert!(same_bits(ws.hess.row(i), dhess.row(i)), "Hessian row {i}");
                }

                let fast = reduced_newton_step(None, &ws.hess, &ws.grad);
                let identity = reduced_newton_step(Some(&Matrix::identity(n)), &dhess, &dgrad);
                match (fast, identity) {
                    (Ok(a), Ok(b)) => prop_assert!(same_bits(&a, &b), "step {a:?} vs {b:?}"),
                    (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
                }
            }
            prop_assert!(interior_points > 0, "the origin neighbourhood is interior");

            // The whole central path, equalities included.
            let short = SolverOptions { max_newton: 25, tol: 1e-3, ..SolverOptions::default() };
            let x0 = vec![0.0; n];
            let new = barrier(objective, constraints, equalities, x0.clone(), &short);
            let old = dense_barrier(objective, constraints, equalities, x0, &short);
            match (new, old) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(same_bits(&a.x, &b.x), "path ends at {:?} vs {:?}", a.x, b.x);
                    prop_assert_eq!(a.newton_iterations, b.newton_iterations);
                    prop_assert_eq!(a.floored, b.floored);
                }
                (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
            }
        }
    }

    #[test]
    fn single_exponential_bound() {
        // minimize -a s.t. 2 e^a <= 1 -> a* = -ln 2.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(2.0, vec![1.0], 0.0)]));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] + 2.0f64.ln()).abs() < 1e-5, "got {}", sol.x[0]);
        assert!(!sol.floored);
    }

    #[test]
    fn asymmetric_walk_optimal_tilt() {
        // minimize a s.t. 0.75 e^a + 0.25 e^{-a} <= 1 -> a* = ln(1/3).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(0.75, vec![1.0], 0.0),
            ExpTerm::exp_affine(0.25, vec![-1.0], 0.0),
        ]));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - (1.0f64 / 3.0).ln()).abs() < 1e-5, "got {}", sol.x[0]);
    }

    #[test]
    fn linear_rows_via_exp_encoding() {
        // minimize x s.t. x >= 3 (i.e. -x <= -3).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0], -3.0));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-4, "got {}", sol.x[0]);
    }

    #[test]
    fn equality_constraint_respected() {
        // maximize y s.t. x - y = 1, e^{x-1} <= 1  =>  x <= 1, y = x-1, y* = 0.
        let mut p = ConvexProblem::new(2);
        p.set_objective(vec![0.0, -1.0]);
        p.add_equality(vec![1.0, -1.0], 1.0);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(
            1.0,
            vec![1.0, 0.0],
            -1.0,
        )]));
        let sol = p.solve(&opts()).unwrap();
        assert!(sol.x[1].abs() < 1e-4, "got y = {}", sol.x[1]);
        assert!((sol.x[0] - sol.x[1] - 1.0).abs() < 1e-7, "equality violated");
    }

    #[test]
    fn infeasible_reported() {
        // e^x + e^{-x} <= 1 is impossible (minimum value 2).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(1.0, vec![1.0], 0.0),
            ExpTerm::exp_affine(1.0, vec![-1.0], 0.0),
        ]));
        assert_eq!(p.solve(&opts()).unwrap_err(), ConvexError::Infeasible);
    }

    #[test]
    fn unbounded_objective_floors() {
        // minimize x s.t. e^x <= 1 (x <= 0): unbounded below.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(1.0, vec![1.0], 0.0)]));
        let mut o = opts();
        o.obj_floor = -100.0;
        let sol = p.solve(&o).unwrap();
        assert!(sol.floored);
        assert!(sol.objective <= -100.0);
    }

    #[test]
    fn uniform_factor_constraint() {
        // minimize a s.t. e^{a}·φ_{U[0,1]}(a) <= 1.
        // log constraint: a + logφ(a) <= 0. At a = 0 it's 0 (boundary);
        // feasible for a < 0. The optimum is unbounded below -> floored,
        // so instead maximize a: optimum a* = 0.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(1.0, vec![1.0], 0.0)
            .with_uniform_factor(UniformMgf::new(0.0, 1.0), vec![1.0], 0.0)]));
        let sol = p.solve(&opts()).unwrap();
        // a + logφ(a) = 0 at a = 0 only.
        assert!(sol.x[0].abs() < 1e-4, "got {}", sol.x[0]);
    }

    /// The tortoise-hare loop constraint at the generator (99,99) with
    /// objective 40·a1 + c (Section 3.1 of the paper), but collapsed to
    /// the one-location form: minimize 40 a1 + 0 a2 + c subject to
    ///   0.5 e^{a1 + 2 a2} + 0.5 e^{a1} <= 1      (loop body)
    ///   e^{-(99 a1 + 100 a2 + c)} <= 1           (violation transition)
    ///   a1 <= 0, a2 >= 0 handled by recession-cone rows:
    ///   a1 <= 0 and -a2 <= 0 as linear rows.
    fn race_loop_problem() -> ConvexProblem {
        let mut p = ConvexProblem::new(3);
        p.set_objective(vec![40.0, 0.0, 1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(0.5, vec![1.0, 2.0, 0.0], 0.0),
            ExpTerm::exp_affine(0.5, vec![1.0, 0.0, 0.0], 0.0),
        ]));
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(
            1.0,
            vec![-99.0, -100.0, -1.0],
            0.0,
        )]));
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, 0.0, 0.0], 0.0));
        p.add_constraint(ExpSumConstraint::linear(vec![0.0, -1.0, 0.0], 0.0));
        p
    }

    #[test]
    fn race_loop_constraint_shape() {
        let p = race_loop_problem();
        let sol = p.solve(&opts()).unwrap();
        assert!(p.is_feasible(&sol.x, 1e-6));
        // The optimum of this relaxation is ≈ exp(-15.7) (paper §3.1).
        assert!(
            sol.objective < -10.0 && sol.objective > -25.0,
            "objective {} outside plausible window",
            sol.objective
        );
    }

    /// At `t = 1e10` the race barrier's value is about −1.6e11, whose
    /// rounding unit (~3e-5) exceeds the decrease the Armijo test can
    /// certify near the center. Without the rounding stop, that centering
    /// keeps accepting steps whose "decrease" is rounding noise until
    /// `max_newton`; with it, the centering ends early at an interior point.
    #[test]
    fn centering_ends_when_rounding_hides_the_armijo_decrease() {
        let p = race_loop_problem();
        let (objective, constraints) = (p.objective_ref(), p.constraints_ref());
        let x0 = vec![-1.0, 0.1, 200.0];
        assert!(strictly_feasible(constraints, &x0));
        let mu = 1e10;
        // Only the centering at t = 1, then also the one at t = mu.
        let first = SolverOptions { tol: f64::INFINITY, ..opts() };
        let both = SolverOptions { mu, tol: 2.0 * constraints.len() as f64 / mu, ..opts() };
        let at_one = barrier(objective, constraints, &[], x0.clone(), &first).unwrap();
        let run = barrier(objective, constraints, &[], x0.clone(), &both).unwrap();
        let high_t_steps = run.newton_iterations - at_one.newton_iterations;
        assert!(
            high_t_steps < both.max_newton,
            "the t = {mu:e} centering ran {high_t_steps} of {} Newton steps",
            both.max_newton
        );
        assert!(!run.floored);
        assert!(strictly_feasible(constraints, &run.x), "x = {:?} left the interior", run.x);

        let dense = dense_barrier(objective, constraints, &[], x0, &both).unwrap();
        assert!(same_bits(&run.x, &dense.x), "{:?} vs {:?}", run.x, dense.x);
        assert_eq!(run.newton_iterations, dense.newton_iterations);
    }

    #[test]
    fn opposite_linear_pair_becomes_equality() {
        // x <= 3 and -x <= -3 pin x = 3; phase I must not call this
        // infeasible (empty strict interior, handled by presolve).
        let mut p = ConvexProblem::new(2);
        p.set_objective(vec![0.0, 1.0]);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, 0.0], 3.0));
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0, 0.0], -3.0));
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, -1.0], 0.0)); // y >= x
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6, "x pinned to 3, got {}", sol.x[0]);
        assert!((sol.x[1] - 3.0).abs() < 1e-4, "y -> 3, got {}", sol.x[1]);
    }

    #[test]
    fn contradictory_linear_pair_is_infeasible() {
        let mut p = ConvexProblem::new(1);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0], 1.0));
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0], -2.0)); // x >= 2
        assert_eq!(p.solve(&opts()).unwrap_err(), ConvexError::Infeasible);
    }

    #[test]
    fn no_constraints_zero_objective() {
        let p = ConvexProblem::new(2);
        let sol = p.solve(&opts()).unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn feasibility_check_helper() {
        let mut p = ConvexProblem::new(1);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0], 5.0));
        assert!(p.is_feasible(&[4.0], 1e-9));
        assert!(!p.is_feasible(&[6.0], 1e-9));
    }
}
